//! The batched top-k query engine.
//!
//! [`QueryEngine`] answers batches of cosine top-k queries over an
//! [`EmbeddingIndex`] with one of two [`QueryBackend`]s — mirroring the
//! `FreqBackend` / `SamplingBackend` pattern of the sampler crate: the
//! approximate LSH path is the optimized default, the exact brute-force scan
//! is the ground-truth reference (and what `recall@k` is measured against).
//!
//! A batch is fanned out across threads with the same
//! [`run_rounds`] worker pool the walk engine
//! and trainer run on: workers take queries in stride, and a single
//! barrier-delimited round replaces per-query thread churn. Per-stage
//! timings (candidate generation vs exact re-rank) are accumulated across
//! workers so a serving deployment can see where batch time goes.

use crate::exact::scan_top_k;
use crate::index::{normalize_into, EmbeddingIndex};
use crate::lsh::{LshConfig, LshIndex, ProbeScratch};
use crate::topk::{BoundedTopK, Neighbor, TopK};
use distger_cluster::run_rounds;
use distger_graph::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

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
    /// Worker threads a batch is fanned out across.
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
/// pool-chunked scan) or the
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
        self.index.dim()
    }

    fn serve(&self, batch: &QueryBatch) -> BatchResults {
        self.top_k(batch)
    }
}

/// Per-worker reusable state leased from the engine's scratch pool for the
/// duration of one batch: LSH probe scratch, candidate buffer, and the
/// query-normalization buffer.
#[derive(Debug)]
struct WorkerScratch {
    probe: Option<ProbeScratch>,
    candidates: Vec<NodeId>,
    query_unit: Vec<f32>,
}

/// A ready-to-serve query engine: the read-optimized index plus (for the LSH
/// backend) the built signature tables.
#[derive(Debug)]
pub struct QueryEngine {
    index: EmbeddingIndex,
    config: ServeConfig,
    lsh: Option<LshIndex>,
    /// Recycled per-worker scratch (LSH seen-stamps are `O(num_nodes)`, so
    /// rebuilding them every batch would cost more than the sublinear
    /// candidate gathering they exist to speed up). Leased at batch start,
    /// returned at batch end; uncontended in steady state.
    scratch_pool: Mutex<Vec<WorkerScratch>>,
}

impl Clone for QueryEngine {
    fn clone(&self) -> Self {
        Self {
            index: self.index.clone(),
            config: self.config,
            lsh: self.lsh.clone(),
            scratch_pool: Mutex::new(Vec::new()),
        }
    }
}

impl QueryEngine {
    /// Builds the engine; the LSH tables are constructed here (once) so
    /// serving itself is read-only.
    ///
    /// # Panics
    /// Panics if `config.k` or `config.threads` is zero.
    pub fn new(index: EmbeddingIndex, config: ServeConfig) -> Self {
        assert!(config.k > 0, "top-k needs k >= 1");
        assert!(config.threads > 0, "need at least one query thread");
        let lsh = match config.backend {
            QueryBackend::Exact => None,
            QueryBackend::Lsh => Some(LshIndex::build(&index, &config.lsh)),
        };
        Self {
            index,
            config,
            lsh,
            scratch_pool: Mutex::new(Vec::new()),
        }
    }

    /// The underlying index.
    pub fn index(&self) -> &EmbeddingIndex {
        &self.index
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Resident memory of the engine in bytes (index plus LSH tables).
    pub fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() + self.lsh.as_ref().map_or(0, LshIndex::memory_bytes)
    }

    /// Answers one query (convenience wrapper over a one-element batch).
    pub fn top_k_one(&self, query: &[f32]) -> TopK {
        let mut batch = QueryBatch::new(self.index.dim());
        batch.push(query);
        self.top_k(&batch).results.remove(0)
    }

    /// Answers every query of `batch`, fanned out across
    /// `config.threads` pool workers.
    ///
    /// # Panics
    /// Panics if `batch.dim()` differs from the index dimension.
    pub fn top_k(&self, batch: &QueryBatch) -> BatchResults {
        assert_eq!(
            batch.dim(),
            self.index.dim(),
            "query dimension does not match the index"
        );
        let queries = batch.len();
        if queries == 0 {
            return BatchResults {
                results: Vec::new(),
                stats: QueryStats::default(),
            };
        }
        let workers = self.config.threads.min(queries);
        let slots: Vec<Mutex<Vec<(usize, TopK)>>> =
            (0..workers).map(|_| Mutex::new(Vec::new())).collect();
        let candidate_nanos = AtomicU64::new(0);
        let rerank_nanos = AtomicU64::new(0);
        let scored = AtomicU64::new(0);

        let wall = Instant::now();
        run_rounds(
            workers,
            |round| round == 0,
            |worker, _| {
                let mut out = Vec::new();
                // Lease recycled scratch (or build fresh on a cold pool); the
                // backend is fixed at construction, so pooled entries always
                // match the engine's needs. Scratch entries are plain
                // reusable buffers — valid in any state — so a lock poisoned
                // by an earlier batch's panic is recovered rather than
                // unwrapped: a long-lived engine keeps serving after a
                // caller catches a panicked batch, and a panic unwinding
                // through here is never masked by a second one.
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
                for qi in (worker..queries).step_by(workers) {
                    normalize_into(batch.query(qi), &mut scratch.query_unit);
                    let top = match &self.lsh {
                        None => {
                            let started = Instant::now();
                            let top = scan_top_k(&self.index, &scratch.query_unit, self.config.k);
                            candidate_nanos
                                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            scored.fetch_add(self.index.num_nodes() as u64, Ordering::Relaxed);
                            top
                        }
                        Some(lsh) => {
                            let probe = scratch.probe.as_mut().expect("LSH scratch exists");
                            let started = Instant::now();
                            lsh.candidates(&scratch.query_unit, probe, &mut scratch.candidates);
                            candidate_nanos
                                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            let started = Instant::now();
                            let mut heap = BoundedTopK::new(self.config.k);
                            for &node in scratch.candidates.iter() {
                                heap.push(Neighbor {
                                    node,
                                    score: self.index.cosine(&scratch.query_unit, node),
                                });
                            }
                            rerank_nanos
                                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            scored.fetch_add(scratch.candidates.len() as u64, Ordering::Relaxed);
                            heap.into_topk()
                        }
                    };
                    out.push((qi, top));
                }
                // Poison-recovering for the same reason as the lease above.
                self.scratch_pool
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(scratch);
                // Safety of the unwrap: slot `worker` is only ever locked by
                // this worker during the round, so the mutex can be poisoned
                // only by this very thread — which cannot reach this line
                // after panicking.
                *slots[worker].lock().unwrap() = out;
            },
        );
        let wall_secs = wall.elapsed().as_secs_f64();

        let mut results: Vec<Option<TopK>> = vec![None; queries];
        for slot in &slots {
            // Safety of the unwrap: `run_rounds` has returned, so every
            // worker either finished cleanly or its panic already propagated
            // out of this function — a poisoned slot cannot reach this loop.
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
                candidate_secs: candidate_nanos.load(Ordering::Relaxed) as f64 / 1e9,
                rerank_secs: rerank_nanos.load(Ordering::Relaxed) as f64 / 1e9,
                wall_secs,
                candidates_scored: scored.load(Ordering::Relaxed),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::gaussian_clusters;

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
            let _guard = engine.scratch_pool.lock().unwrap();
            panic!("batch exploded mid-lease");
        }));
        assert!(panicked.is_err());
        assert!(engine.scratch_pool.is_poisoned(), "precondition: poisoned");
        let after = engine.top_k(&batch);
        assert_eq!(baseline.results, after.results);
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
