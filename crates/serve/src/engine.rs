//! The batched top-k query engine.
//!
//! [`QueryEngine`] answers batches of cosine top-k queries over an
//! [`EmbeddingIndex`] with one of two [`QueryBackend`]s: the approximate LSH
//! path is the optimized default, the exact brute-force scan is the
//! ground-truth reference (and what `recall@k` is measured against).
//!
//! The engine owns its threads: [`QueryEngine::new`] spawns `threads − 1`
//! helpers that park between batches and are joined when the engine drops
//! (the `workers` module). A batch's queries are taken in stride by
//! the calling thread (stride 0) and the helpers it wakes. A one-query
//! batch, a one-thread engine, and a batch that finds the helpers busy with
//! another caller's batch run wholly on the calling thread. Each query is
//! answered alone by the same code whoever runs it, so the thread count and
//! the inline cases never change an answer. Per-stage timings (candidate
//! generation vs exact re-rank) are accumulated across participants so a
//! serving deployment can see where batch time goes.

use crate::exact::scan_top_k;
use crate::index::{normalize_into, EmbeddingIndex};
use crate::lsh::{LshConfig, LshIndex, ProbeScratch};
use crate::topk::{BoundedTopK, Neighbor, TopK};
use crate::workers::Workers;
use distger_graph::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The most threads one engine may run a batch on. A LOAD payload's
/// `threads` comes from a peer and is checked against this before any
/// thread is spawned.
pub(crate) const MAX_THREADS: usize = 256;

/// Which algorithm answers top-k queries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueryBackend {
    /// Chunked brute-force cosine scan over every node: recall 1.0 by
    /// construction, `O(n·d)` per query (the reference).
    Exact,
    /// Random-hyperplane signatures with multi-probe buckets and an exact
    /// re-rank of the candidates: sublinear candidate sets at recall < 1
    /// (the optimized default).
    #[default]
    Lsh,
}

impl QueryBackend {
    /// Display name used by the experiment harness.
    pub fn name(&self) -> &'static str {
        match self {
            QueryBackend::Exact => "exact",
            QueryBackend::Lsh => "lsh",
        }
    }
}

/// Configuration of a [`QueryEngine`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeConfig {
    /// Which backend answers queries.
    pub backend: QueryBackend,
    /// Results per query.
    pub k: usize,
    /// Threads a batch is fanned out across, the caller's included
    /// (1..=256); the engine keeps `threads − 1` helpers for its lifetime.
    pub threads: usize,
    /// LSH parameters (ignored by [`QueryBackend::Exact`]).
    pub lsh: LshConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            backend: QueryBackend::default(),
            k: 10,
            threads: 4,
            lsh: LshConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Builder-style backend override.
    pub fn with_backend(mut self, backend: QueryBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Builder-style k override.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }
}

/// A batch of query vectors, row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryBatch {
    pub(crate) dim: usize,
    pub(crate) data: Vec<f32>,
}

impl QueryBatch {
    /// An empty batch of `dim`-dimensional queries.
    ///
    /// # Panics
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "need a positive query dimension");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Appends one query vector.
    ///
    /// # Panics
    /// Panics if `query.len() != dim`.
    pub fn push(&mut self, query: &[f32]) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        self.data.extend_from_slice(query);
    }

    /// A batch querying the (already indexed) embeddings of `nodes` — the
    /// "more like this node" shape of similarity serving.
    pub fn from_nodes(index: &EmbeddingIndex, nodes: &[NodeId]) -> Self {
        let mut batch = Self::new(index.dim());
        for &node in nodes {
            batch.push(index.unit_vector(node));
        }
        batch
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the batch holds no query.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Query dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `i`-th query vector.
    pub fn query(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Per-stage accounting of one batch.
///
/// The stage times are **CPU-seconds summed across workers** (stages
/// interleave per query inside each worker, so per-stage wall time is not
/// separable); `wall_secs` is the end-to-end batch wall time the QPS numbers
/// divide by.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Candidate generation: the full scan (exact) or signature computation
    /// plus bucket probing (LSH).
    pub candidate_secs: f64,
    /// Exact scoring of the candidates (LSH only; 0 for exact, whose scan
    /// *is* the scoring).
    pub rerank_secs: f64,
    /// End-to-end batch wall time.
    pub wall_secs: f64,
    /// Candidates scored across the batch (exact: `queries × num_nodes`).
    pub candidates_scored: u64,
}

impl QueryStats {
    /// Queries per second of a batch of `queries`. An empty batch is 0.0.
    ///
    /// # Panics
    /// Panics if `queries > 0` but `wall_secs` is not positive: a
    /// zero-duration run has no meaningful throughput, and returning 0.0
    /// here (the old behavior) silently passed the bench regression gate on
    /// degenerate configs — a misconfigured bench must fail loudly instead.
    pub fn qps(&self, queries: usize) -> f64 {
        if queries == 0 {
            return 0.0;
        }
        assert!(
            self.wall_secs > 0.0,
            "qps of {queries} queries over a non-positive wall time ({}s): \
             degenerate measurement, refusing to report 0.0",
            self.wall_secs
        );
        queries as f64 / self.wall_secs
    }
}

/// Results of one batch: `results[i]` answers `batch.query(i)`.
#[derive(Clone, Debug)]
pub struct BatchResults {
    /// Per-query top-k, in batch order.
    pub results: Vec<TopK>,
    /// Per-stage accounting.
    pub stats: QueryStats,
}

/// Anything the request [`Scheduler`](crate::schedule::Scheduler) can put
/// its dynamic batches in front of: the single-process [`QueryEngine`] (one
/// batch over the engine's own threads) or the
/// [`ShardedQueryEngine`](crate::shard::ShardedQueryEngine) (batches fan out
/// per shard over the transport). Implementations must uphold the
/// scheduler's transparency contract — `serve` answers every query of the
/// batch deterministically, in batch order — and may panic to signal a
/// fail-stop fault (the scheduler catches it and surfaces the payload).
pub trait ServeEngine: Send + Sync + 'static {
    /// Query dimension the engine accepts.
    fn dim(&self) -> usize;

    /// Answers every query of `batch`.
    fn serve(&self, batch: &QueryBatch) -> BatchResults;
}

impl ServeEngine for QueryEngine {
    fn dim(&self) -> usize {
        self.core.index.dim()
    }

    fn serve(&self, batch: &QueryBatch) -> BatchResults {
        self.top_k(batch)
    }
}

/// Per-participant reusable state leased from the engine's scratch pool for
/// the duration of one batch: LSH probe scratch, candidate buffer, and the
/// query-normalization buffer.
#[derive(Debug)]
struct WorkerScratch {
    probe: Option<ProbeScratch>,
    candidates: Vec<NodeId>,
    query_unit: Vec<f32>,
}

/// The read-only serving state, shared by the engine and its helpers.
#[derive(Debug)]
struct Core {
    index: Arc<EmbeddingIndex>,
    config: ServeConfig,
    lsh: Option<LshIndex>,
    /// Recycled per-participant scratch (LSH seen-stamps are
    /// `O(num_nodes)`, so rebuilding them every batch would cost more than
    /// the sublinear candidate gathering they exist to speed up). Leased at
    /// batch start, returned at batch end; uncontended in steady state.
    scratch_pool: Mutex<Vec<WorkerScratch>>,
}

/// One batch's answers and stage counters, written by every participant.
struct Answers {
    /// `(query index, answer)` pairs, one slot per participant.
    slots: Vec<Mutex<Vec<(usize, TopK)>>>,
    candidate_nanos: AtomicU64,
    rerank_nanos: AtomicU64,
    scored: AtomicU64,
}

impl Answers {
    fn new(participants: usize) -> Self {
        Self {
            slots: (0..participants).map(|_| Mutex::new(Vec::new())).collect(),
            candidate_nanos: AtomicU64::new(0),
            rerank_nanos: AtomicU64::new(0),
            scored: AtomicU64::new(0),
        }
    }

    /// The answers in batch order, once every participant has finished.
    fn finish(&self, queries: usize, wall_secs: f64) -> BatchResults {
        let mut results: Vec<Option<TopK>> = vec![None; queries];
        for slot in &self.slots {
            // Safety of the unwrap: every participant has returned, and one
            // that panicked re-raised its panic before this call — a
            // poisoned slot cannot reach this loop.
            for (qi, top) in slot.lock().unwrap().drain(..) {
                results[qi] = Some(top);
            }
        }
        BatchResults {
            results: results
                .into_iter()
                .map(|r| r.expect("every query answered"))
                .collect(),
            stats: QueryStats {
                candidate_secs: self.candidate_nanos.load(Ordering::Relaxed) as f64 / 1e9,
                rerank_secs: self.rerank_nanos.load(Ordering::Relaxed) as f64 / 1e9,
                wall_secs,
                candidates_scored: self.scored.load(Ordering::Relaxed),
            },
        }
    }
}

/// A batch handed to the helpers: they outlive any borrow, so the engine
/// state and a copy of the queries travel by `Arc`.
struct SharedBatch {
    core: Arc<Core>,
    batch: QueryBatch,
    answers: Answers,
}

impl Core {
    /// Answers queries `participant, participant + participants, …` of
    /// `batch` into `answers.slots[participant]`.
    fn answer(
        &self,
        batch: &QueryBatch,
        participant: usize,
        participants: usize,
        answers: &Answers,
    ) {
        // Lease recycled scratch (or build fresh on a cold pool); the
        // backend is fixed at construction, so pooled entries always match
        // the engine's needs. Scratch entries are plain reusable buffers —
        // valid in any state — so a lock poisoned by an earlier batch's
        // panic is recovered rather than unwrapped: a long-lived engine
        // keeps serving after a caller catches a panicked batch, and a panic
        // unwinding through here is never masked by a second one.
        let mut scratch = self
            .scratch_pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_else(|| WorkerScratch {
                probe: self
                    .lsh
                    .as_ref()
                    .map(|lsh| ProbeScratch::for_index(lsh, &self.index)),
                candidates: Vec::new(),
                query_unit: vec![0.0; self.index.dim()],
            });
        let mut out = Vec::new();
        for qi in (participant..batch.len()).step_by(participants) {
            normalize_into(batch.query(qi), &mut scratch.query_unit);
            let top = match &self.lsh {
                None => {
                    let started = Instant::now();
                    let top = scan_top_k(&self.index, &scratch.query_unit, self.config.k);
                    answers
                        .candidate_nanos
                        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    answers
                        .scored
                        .fetch_add(self.index.num_nodes() as u64, Ordering::Relaxed);
                    top
                }
                Some(lsh) => {
                    let probe = scratch.probe.as_mut().expect("LSH scratch exists");
                    let started = Instant::now();
                    lsh.candidates(&scratch.query_unit, probe, &mut scratch.candidates);
                    answers
                        .candidate_nanos
                        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    let started = Instant::now();
                    let top = rerank(
                        &self.index,
                        &scratch.query_unit,
                        &scratch.candidates,
                        self.config.k,
                    );
                    answers
                        .rerank_nanos
                        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    answers
                        .scored
                        .fetch_add(scratch.candidates.len() as u64, Ordering::Relaxed);
                    top
                }
            };
            out.push((qi, top));
        }
        // Poison-recovering for the same reason as the lease above.
        self.scratch_pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(scratch);
        // Safety of the unwrap: slot `participant` is only ever locked by
        // this participant during the batch, so the mutex can be poisoned
        // only by this very thread — which cannot reach this line after
        // panicking.
        *answers.slots[participant].lock().unwrap() = out;
    }
}

/// The exact top-k of `candidates`. A function of its own so the index
/// reaches the loop as a reference argument: reached through the engine's
/// `Arc`, its fields were reloaded for every candidate, ≈ 10 % of a 32-dim
/// near-full scan.
fn rerank(index: &EmbeddingIndex, query_unit: &[f32], candidates: &[NodeId], k: usize) -> TopK {
    let mut heap = BoundedTopK::new(k, candidates.len());
    for &node in candidates {
        heap.push(Neighbor {
            node,
            score: index.cosine(query_unit, node),
        });
    }
    heap.into_topk()
}

/// A ready-to-serve query engine: the read-optimized index plus (for the LSH
/// backend) the built signature tables, and the helper threads batches are
/// fanned out on.
#[derive(Debug)]
pub struct QueryEngine {
    core: Arc<Core>,
    workers: Workers,
}

impl Clone for QueryEngine {
    /// Shares the index, tables and scratch pool; spawns the clone's own
    /// helpers.
    fn clone(&self) -> Self {
        Self {
            core: Arc::clone(&self.core),
            workers: Workers::spawn(self.workers.helpers()),
        }
    }
}

impl QueryEngine {
    /// Spawns the engine's `config.threads − 1` helper threads and builds
    /// the LSH tables on them (once), so serving itself is read-only.
    ///
    /// # Panics
    /// Panics if `config.k` is zero, or if `config.threads` is zero or
    /// above 256.
    pub fn new(index: EmbeddingIndex, config: ServeConfig) -> Self {
        assert!(config.k > 0, "top-k needs k >= 1");
        assert!(
            (1..=MAX_THREADS).contains(&config.threads),
            "need 1..={MAX_THREADS} query threads, got {}",
            config.threads
        );
        let workers = Workers::spawn(config.threads - 1);
        let index = Arc::new(index);
        let lsh = match config.backend {
            QueryBackend::Exact => None,
            QueryBackend::Lsh => Some(LshIndex::build_on(&index, &config.lsh, &workers)),
        };
        Self {
            core: Arc::new(Core {
                index,
                config,
                lsh,
                scratch_pool: Mutex::new(Vec::new()),
            }),
            workers,
        }
    }

    /// The underlying index.
    pub fn index(&self) -> &EmbeddingIndex {
        &self.core.index
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.core.config
    }

    /// Resident memory of the engine in bytes (index plus LSH tables).
    pub fn memory_bytes(&self) -> usize {
        self.core.index.memory_bytes() + self.core.lsh.as_ref().map_or(0, LshIndex::memory_bytes)
    }

    /// Answers one query (convenience wrapper over a one-element batch,
    /// which runs on the calling thread).
    pub fn top_k_one(&self, query: &[f32]) -> TopK {
        let mut batch = QueryBatch::new(self.core.index.dim());
        batch.push(query);
        self.top_k(&batch).results.remove(0)
    }

    /// Answers every query of `batch`: the calling thread takes stride 0
    /// and wakes `min(threads, queries) − 1` helpers for the rest, or runs
    /// the whole batch itself when that is one participant or the helpers
    /// are busy with another caller's batch.
    ///
    /// # Panics
    /// Panics if `batch.dim()` differs from the index dimension, and
    /// re-raises a panic of any participant with its original payload.
    pub fn top_k(&self, batch: &QueryBatch) -> BatchResults {
        assert_eq!(
            batch.dim(),
            self.core.index.dim(),
            "query dimension does not match the index"
        );
        let queries = batch.len();
        if queries == 0 {
            return BatchResults {
                results: Vec::new(),
                stats: QueryStats::default(),
            };
        }
        let participants = self.core.config.threads.min(queries);
        let wall = Instant::now();
        if participants == 1 {
            let answers = Answers::new(1);
            self.core.answer(batch, 0, 1, &answers);
            return answers.finish(queries, wall.elapsed().as_secs_f64());
        }
        let shared = Arc::new(SharedBatch {
            core: Arc::clone(&self.core),
            batch: batch.clone(),
            answers: Answers::new(participants),
        });
        let job = Arc::clone(&shared);
        self.workers.run(
            participants,
            Arc::new(move |participant, participants| {
                job.core
                    .answer(&job.batch, participant, participants, &job.answers)
            }),
        );
        shared.answers.finish(queries, wall.elapsed().as_secs_f64())
    }

    /// Batches this engine has handed to its helpers.
    #[cfg(test)]
    fn helper_runs(&self) -> u64 {
        self.workers.runs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::gaussian_clusters;
    use std::panic::AssertUnwindSafe;

    fn engine(backend: QueryBackend, threads: usize) -> QueryEngine {
        let index = EmbeddingIndex::build(&gaussian_clusters(300, 16, 6, 0.05, 11));
        QueryEngine::new(
            index,
            ServeConfig {
                backend,
                k: 5,
                threads,
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn exact_self_query_returns_the_node_first() {
        let engine = engine(QueryBackend::Exact, 2);
        let batch = QueryBatch::from_nodes(engine.index(), &[0, 17, 123]);
        let out = engine.top_k(&batch);
        assert_eq!(out.results.len(), 3);
        for (query_node, top) in [0u32, 17, 123].into_iter().zip(&out.results) {
            assert_eq!(top.neighbors()[0].node, query_node);
            assert!((top.neighbors()[0].score - 1.0).abs() < 1e-5);
            assert_eq!(top.len(), 5);
        }
        assert_eq!(out.stats.candidates_scored, 3 * 300);
        assert!(out.stats.wall_secs > 0.0);
        assert_eq!(out.stats.rerank_secs, 0.0);
    }

    #[test]
    fn lsh_self_query_returns_the_node_first() {
        let engine = engine(QueryBackend::Lsh, 2);
        let batch = QueryBatch::from_nodes(engine.index(), &[5, 42]);
        let out = engine.top_k(&batch);
        for (query_node, top) in [5u32, 42].into_iter().zip(&out.results) {
            assert_eq!(top.neighbors()[0].node, query_node);
        }
        // LSH scores fewer candidates than the exact scan would.
        assert!(out.stats.candidates_scored < 2 * 300);
        assert!(out.stats.candidate_secs >= 0.0 && out.stats.rerank_secs >= 0.0);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let batch_nodes: Vec<u32> = (0..40).collect();
        let single = engine(QueryBackend::Lsh, 1);
        let batch = QueryBatch::from_nodes(single.index(), &batch_nodes);
        let a = single.top_k(&batch);
        let b = engine(QueryBackend::Lsh, 4).top_k(&batch);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = engine(QueryBackend::Exact, 3);
        let out = engine.top_k(&QueryBatch::new(16));
        assert!(out.results.is_empty());
        assert_eq!(out.stats.candidates_scored, 0);
    }

    #[test]
    fn identical_vectors_tie_break_by_node_id_on_both_backends() {
        // Every node has the same embedding: all cosines are exactly equal,
        // so top-k must be the k smallest node ids, in order, on both
        // backends.
        let embeddings = distger_embed::Embeddings::from_node_major(vec![1.0f32; 50 * 4], 4);
        for backend in [QueryBackend::Exact, QueryBackend::Lsh] {
            let engine = QueryEngine::new(
                EmbeddingIndex::build(&embeddings),
                ServeConfig {
                    backend,
                    k: 4,
                    threads: 2,
                    ..ServeConfig::default()
                },
            );
            let top = engine.top_k_one(&[1.0, 1.0, 1.0, 1.0]);
            assert_eq!(
                top.nodes().collect::<Vec<_>>(),
                vec![0, 1, 2, 3],
                "{} backend broke ties non-deterministically",
                backend.name()
            );
        }
    }

    #[test]
    fn poisoned_scratch_pool_recovers_and_keeps_serving() {
        // A serving deployment keeps one engine alive across many batches;
        // if a caller catches a batch that panicked while the scratch-pool
        // mutex was held, the next batch must recover the poisoned lock and
        // serve identical results — not die on a PoisonError forever after.
        let engine = engine(QueryBackend::Lsh, 2);
        let batch = QueryBatch::from_nodes(engine.index(), &[1, 42, 200]);
        let baseline = engine.top_k(&batch);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = engine.core.scratch_pool.lock().unwrap();
            panic!("batch exploded mid-lease");
        }));
        assert!(panicked.is_err());
        assert!(
            engine.core.scratch_pool.is_poisoned(),
            "precondition: poisoned"
        );
        let after = engine.top_k(&batch);
        assert_eq!(baseline.results, after.results);
    }

    #[test]
    fn a_helper_panic_reraises_on_the_caller_and_the_engine_keeps_serving() {
        let engine = engine(QueryBackend::Lsh, 2);
        let batch = QueryBatch::from_nodes(engine.index(), &[3, 77, 150, 299]);
        let before = engine.top_k(&batch);
        // Participant 0 is always the caller, so participant 1 is a helper.
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            engine.workers.run(
                2,
                Arc::new(|participant, _| {
                    if participant == 1 {
                        std::panic::panic_any("participant 1 exploded");
                    }
                }),
            )
        }));
        let payload = panicked.expect_err("the helper's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"participant 1 exploded")
        );
        let runs = engine.helper_runs();
        assert_eq!(engine.top_k(&batch).results, before.results);
        assert_eq!(engine.helper_runs(), runs + 1, "the helper survived");
    }

    #[test]
    fn dropping_the_engine_joins_every_helper() {
        let engine = engine(QueryBackend::Exact, 4);
        engine.top_k(&QueryBatch::from_nodes(engine.index(), &[1, 2, 3, 4, 5]));
        // The engine and each live helper hold the helpers' shared state.
        let alive = engine.workers.liveness();
        assert_eq!(alive.strong_count(), 1 + 3);
        drop(engine);
        assert_eq!(alive.strong_count(), 0, "a helper outlived its engine");
    }

    #[test]
    fn one_query_batches_and_one_thread_engines_wake_no_helper() {
        let pooled = engine(QueryBackend::Lsh, 4);
        // The LSH signatures were computed on the helpers.
        assert_eq!(pooled.helper_runs(), 1);
        pooled.top_k_one(pooled.index().unit_vector(9));
        pooled.top_k(&QueryBatch::from_nodes(pooled.index(), &[9]));
        assert_eq!(pooled.helper_runs(), 1);
        pooled.top_k(&QueryBatch::from_nodes(pooled.index(), &[9, 10]));
        assert_eq!(pooled.helper_runs(), 2);

        let single = engine(QueryBackend::Lsh, 1);
        let nodes: Vec<u32> = (0..40).collect();
        single.top_k(&QueryBatch::from_nodes(single.index(), &nodes));
        assert_eq!(single.helper_runs(), 0);
    }

    #[test]
    fn a_batch_that_finds_the_helpers_busy_runs_inline() {
        let engine = engine(QueryBackend::Lsh, 2);
        let batch = QueryBatch::from_nodes(engine.index(), &[0, 17, 123, 250, 299]);
        let expected = engine.top_k(&batch);
        let runs = engine.helper_runs();
        // Hold the one helper inside another caller's run until the second
        // batch has been answered.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let job: crate::workers::Job = Arc::new(move |participant, _| {
            if participant == 1 {
                started_tx.send(()).expect("test is waiting");
                let _ = release_rx.lock().unwrap().recv();
            }
        });
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| engine.workers.run(2, job));
            started_rx.recv().expect("the helper took the run");
            let inline = engine.top_k(&batch);
            assert_eq!(inline.results, expected.results);
            release_tx.send(()).expect("helper is waiting");
            holder.join().expect("holding run finished");
        });
        assert_eq!(engine.helper_runs(), runs + 1, "only the holding run");
    }

    #[test]
    fn concurrent_callers_get_the_sequential_answers() {
        let engine = engine(QueryBackend::Lsh, 3);
        let batches: Vec<QueryBatch> = (0..2u32)
            .map(|caller| {
                let nodes: Vec<u32> = (0..60).map(|i| (i * 7 + caller * 13) % 300).collect();
                QueryBatch::from_nodes(engine.index(), &nodes)
            })
            .collect();
        let expected: Vec<Vec<TopK>> = batches.iter().map(|b| engine.top_k(b).results).collect();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for (batch, expected) in batches.iter().zip(&expected) {
                let (engine, start) = (&engine, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..50 {
                        assert_eq!(&engine.top_k(batch).results, expected);
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "query threads")]
    fn thread_counts_above_the_cap_are_rejected() {
        engine(QueryBackend::Exact, MAX_THREADS + 1);
    }

    #[test]
    fn qps_is_consistent_with_wall_time() {
        let stats = QueryStats {
            wall_secs: 0.5,
            ..QueryStats::default()
        };
        assert_eq!(stats.qps(100), 200.0);
        assert_eq!(QueryStats::default().qps(0), 0.0, "empty batch is fine");
    }

    #[test]
    #[should_panic(expected = "non-positive wall time")]
    fn qps_rejects_zero_duration_runs() {
        // Regression: this used to return 0.0, which the bench gate's
        // missing-row check never saw — a degenerate config sailed through.
        QueryStats::default().qps(100);
    }

    #[test]
    #[should_panic(expected = "dimension does not match")]
    fn dimension_mismatch_rejected() {
        let engine = engine(QueryBackend::Exact, 1);
        engine.top_k(&QueryBatch::new(3));
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn batch_rejects_wrong_width_rows() {
        let mut batch = QueryBatch::new(4);
        batch.push(&[0.0; 3]);
    }
}
