//! Property-based tests for the serving layer.
//!
//! Two contracts carry the whole crate: **determinism** — the same index and
//! config must answer the same batch identically across runs, fresh engine
//! builds and thread counts (the tie-break by ascending node id is what
//! makes that possible at all), and **normalization** — every
//! [`EmbeddingIndex`] row is a unit vector (or stays exactly zero) whose
//! original L2 norm is preserved. Both are checked over randomized
//! embeddings, not just the fixtures the unit tests use.

use distger_embed::Embeddings;
use distger_serve::{
    gaussian_clusters, EmbeddingIndex, QueryBackend, QueryBatch, QueryEngine, ServeConfig,
};
use proptest::prelude::*;

fn engine(index: &EmbeddingIndex, backend: QueryBackend, k: usize, threads: usize) -> QueryEngine {
    QueryEngine::new(
        index.clone(),
        ServeConfig {
            backend,
            k,
            threads,
            ..ServeConfig::default()
        },
    )
}

/// Node-major matrix of `distinct` deterministic base vectors, each repeated
/// `copies` times — every similarity hit ties with `copies − 1` exact
/// duplicates, so stable results *require* the node-id tie-break.
fn tied_embeddings(distinct: usize, copies: usize, dim: usize, seed: u64) -> Embeddings {
    let mut data = Vec::with_capacity(distinct * copies * dim);
    for d in 0..distinct {
        let base: Vec<f32> = (0..dim)
            .map(|j| (seed as f32 * 0.013 + (d * dim + j) as f32 * 0.73).sin() + 0.1)
            .collect();
        for _ in 0..copies {
            data.extend_from_slice(&base);
        }
    }
    Embeddings::from_node_major(data, dim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Exact ≡ re-run Exact: the same engine run twice, a freshly built
    /// engine, and a different thread count all return byte-identical
    /// results on random Gaussian-cluster embeddings.
    #[test]
    fn exact_backend_is_deterministic_across_runs_builds_and_threads(
        nodes in 40usize..160,
        dim in 4usize..24,
        clusters in 2usize..6,
        k in 1usize..12,
        threads in 2usize..5,
        seed in 0u64..64,
    ) {
        let index = EmbeddingIndex::build(&gaussian_clusters(nodes, dim, clusters, 0.2, seed));
        let query_nodes: Vec<u32> = (0..nodes as u32).step_by(3).collect();
        let batch = QueryBatch::from_nodes(&index, &query_nodes);
        let first_engine = engine(&index, QueryBackend::Exact, k, threads);
        let rerun = first_engine.top_k(&batch);
        let first = first_engine.top_k(&batch);
        let fresh = engine(&index, QueryBackend::Exact, k, threads).top_k(&batch);
        let single = engine(&index, QueryBackend::Exact, k, 1).top_k(&batch);
        prop_assert_eq!(&first.results, &rerun.results);
        prop_assert_eq!(&first.results, &fresh.results);
        prop_assert_eq!(&first.results, &single.results);
        for top in &first.results {
            prop_assert_eq!(top.len(), k.min(nodes), "exact always fills k");
        }
    }

    /// LSH determinism and tie-break stability: on an index full of exact
    /// duplicates the signature tables, probing order and the final ranking
    /// must all be reproducible — across re-runs, fresh engine builds (the
    /// hyperplanes are seeded) and thread counts — and every result list
    /// must obey the descending-score / ascending-node-id contract.
    #[test]
    fn lsh_backend_is_deterministic_and_breaks_ties_by_node_id(
        distinct in 2usize..6,
        copies in 4usize..16,
        dim in 4usize..16,
        k in 1usize..10,
        threads in 2usize..5,
        seed in 0u64..64,
    ) {
        let index = EmbeddingIndex::build(&tied_embeddings(distinct, copies, dim, seed));
        let query_nodes: Vec<u32> = (0..(distinct * copies) as u32).step_by(copies).collect();
        let batch = QueryBatch::from_nodes(&index, &query_nodes);
        let first_engine = engine(&index, QueryBackend::Lsh, k, threads);
        let first = first_engine.top_k(&batch);
        let rerun = first_engine.top_k(&batch);
        let fresh = engine(&index, QueryBackend::Lsh, k, threads).top_k(&batch);
        let single = engine(&index, QueryBackend::Lsh, k, 1).top_k(&batch);
        prop_assert_eq!(&first.results, &rerun.results);
        prop_assert_eq!(&first.results, &fresh.results);
        prop_assert_eq!(&first.results, &single.results);
        for top in &first.results {
            prop_assert!(!top.is_empty(), "a self-query always finds its own bucket");
            for pair in top.neighbors().windows(2) {
                let ordered = pair[1].score < pair[0].score
                    || (pair[1].score == pair[0].score && pair[0].node < pair[1].node);
                prop_assert!(
                    ordered,
                    "ordering contract violated: ({}, {}) then ({}, {})",
                    pair[0].node, pair[0].score, pair[1].node, pair[1].score
                );
            }
        }
    }

    /// An engine's helpers live as long as it does: a run of batches of
    /// every size, from one query (answered on the caller) to more than the
    /// engine has threads, on one long-lived engine answers each batch as a
    /// freshly built engine does, for every thread count.
    #[test]
    fn a_long_lived_engine_answers_every_batch_as_a_fresh_engine_does(
        nodes in 40usize..120,
        dim in 4usize..16,
        k in 1usize..8,
        sizes in proptest::collection::vec(0usize..12, 1..8),
        lsh in any::<bool>(),
        seed in 0u64..64,
    ) {
        let backend = if lsh { QueryBackend::Lsh } else { QueryBackend::Exact };
        let index = EmbeddingIndex::build(&gaussian_clusters(nodes, dim, 3, 0.2, seed));
        for threads in 1..=4 {
            let long_lived = engine(&index, backend, k, threads);
            for (b, &size) in sizes.iter().enumerate() {
                let query_nodes: Vec<u32> =
                    (0..size).map(|i| ((b * 31 + i * 7) % nodes) as u32).collect();
                let batch = QueryBatch::from_nodes(&index, &query_nodes);
                let fresh = engine(&index, backend, k, threads).top_k(&batch);
                prop_assert_eq!(
                    &long_lived.top_k(&batch).results,
                    &fresh.results,
                    "batch {} on {} threads",
                    b,
                    threads
                );
            }
        }
    }

    /// `EmbeddingIndex` normalization invariants on arbitrary embeddings
    /// (including all-zero rows): unit rows, preserved norms, exact
    /// reconstruction `unit × norm ≈ row`, and self-cosine 1.
    #[test]
    fn index_normalization_invariants_hold_on_random_embeddings(
        nodes in 1usize..80,
        dim in 1usize..24,
        seed in 0u64..256,
        zero_every in 2usize..8,
    ) {
        let mut state = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1234_5678);
        let mut next = move || -> f32 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let mut data = vec![0.0f32; nodes * dim];
        for (i, value) in data.iter_mut().enumerate() {
            if (i / dim) % zero_every != 0 {
                *value = next();
            }
        }
        let index = EmbeddingIndex::build(&Embeddings::from_node_major(data.clone(), dim));
        prop_assert_eq!(index.num_nodes(), nodes);
        prop_assert_eq!(index.dim(), dim);
        for node in 0..nodes {
            let row = &data[node * dim..(node + 1) * dim];
            let norm = row.iter().map(|x| (*x as f64) * (*x as f64)).sum::<f64>().sqrt();
            let stored_norm = index.norm(node as u32) as f64;
            let unit = index.unit_vector(node as u32);
            prop_assert!(
                (stored_norm - norm).abs() <= 1e-4 * norm.max(1.0),
                "norm of row {node} drifted: stored {stored_norm}, expected {norm}"
            );
            if norm == 0.0 {
                prop_assert!(unit.iter().all(|&x| x == 0.0), "zero rows must stay zero");
            } else {
                let unit_norm = unit
                    .iter()
                    .map(|x| (*x as f64) * (*x as f64))
                    .sum::<f64>()
                    .sqrt();
                prop_assert!(
                    (unit_norm - 1.0).abs() < 1e-4,
                    "row {node} is not unit length: {unit_norm}"
                );
                for (u, x) in unit.iter().zip(row) {
                    prop_assert!(
                        (u * index.norm(node as u32) - x).abs() <= 1e-3 * norm as f32,
                        "row {node} does not reconstruct"
                    );
                }
                prop_assert!((index.cosine(unit, node as u32) - 1.0).abs() < 1e-4);
            }
        }
    }
}
