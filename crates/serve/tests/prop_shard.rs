//! Property-based tests for sharded serving: the scatter-gather engine must
//! be *indistinguishable* from a single-process [`QueryEngine`] — bit-identical
//! node ids AND scores — across random embeddings, shard counts, k, both
//! backends, and adversarial tie/duplicate structure.
//!
//! Two layers are exercised independently:
//!
//! * the **merge oracle**: [`merge_topk`] over per-shard bounded heaps must
//!   equal a global bounded top-k over the concatenated candidates — the
//!   correctness lemma that makes scatter-gather sound at all;
//! * the **end-to-end engine**: a loopback-TCP [`ShardedQueryEngine`] over
//!   1–8 shards answers exactly like the in-process engine, and a shard
//!   panic at a random endpoint fails that batch loudly while leaving the
//!   protocol aligned for the next one.

use distger_cluster::{panic_message, ControlChannel, FaultPlan, SocketTransport};
use distger_embed::Embeddings;
use distger_serve::{
    gaussian_clusters, merge_topk, receive_shard, serve_shard, BoundedTopK, EmbeddingIndex,
    Neighbor, QueryBackend, QueryBatch, QueryEngine, ServeConfig, ShardedQueryEngine, TopK,
};
use proptest::prelude::*;
use std::net::TcpListener;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Duration;

fn config(backend: QueryBackend, k: usize) -> ServeConfig {
    ServeConfig {
        backend,
        k,
        threads: 2,
        ..ServeConfig::default()
    }
}

fn backend_of(choice: usize) -> QueryBackend {
    if choice == 0 {
        QueryBackend::Exact
    } else {
        QueryBackend::Lsh
    }
}

/// Loopback harness mirroring `launch`: `shards - 1` workers on scoped
/// threads, the coordinator's engine handed to `run` (consuming it shuts the
/// workers down).
fn sharded<R>(
    embeddings: &Embeddings,
    config: ServeConfig,
    shards: usize,
    faulted_endpoint: Option<usize>,
    run: impl FnOnce(ShardedQueryEngine<SocketTransport>) -> R,
) -> R {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("loopback addr");
    std::thread::scope(|scope| {
        for _ in 1..shards {
            scope.spawn(move || {
                let mut channel =
                    SocketTransport::worker(addr, Duration::from_secs(30)).expect("connect");
                let shard = receive_shard(&mut channel).expect("receive shard");
                // Endpoint ids follow accept order, not spawn order.
                let endpoint = channel.endpoint();
                let faults = (faulted_endpoint == Some(endpoint))
                    .then(|| FaultPlan::new().panic_at(endpoint, 0, 0).build());
                serve_shard(&mut channel, &shard, faults.as_ref()).expect("serve loop");
            });
        }
        let channel = SocketTransport::coordinator(&listener, shards, shards).expect("coordinator");
        let mut engine = ShardedQueryEngine::new(channel, embeddings, config).expect("load shards");
        if faulted_endpoint == Some(0) {
            engine = engine.with_faults(Arc::new(FaultPlan::new().panic_at(0, 0, 0).build()));
        }
        run(engine)
    })
}

/// Bit-exact comparison: node ids and the raw score bits must both match.
fn bit_identical(got: &[TopK], expected: &[TopK]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), expected.len(), "result count");
    for (q, (g, e)) in got.iter().zip(expected).enumerate() {
        let gs: Vec<(u32, u32)> = g
            .neighbors()
            .iter()
            .map(|n| (n.node, n.score.to_bits()))
            .collect();
        let es: Vec<(u32, u32)> = e
            .neighbors()
            .iter()
            .map(|n| (n.node, n.score.to_bits()))
            .collect();
        prop_assert_eq!(gs, es, "query {} diverged", q);
    }
    Ok(())
}

/// Deterministic embeddings where every distinct vector appears `copies`
/// times — scores tie in exact duplicates, so sharded and single-process
/// agreement *requires* the ascending-global-id tie-break to survive the
/// local-to-global id mapping and the cross-shard merge.
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

    /// Merge oracle: splitting scored candidates across shards, bounding each
    /// shard's list to k, and k-way merging equals one global bounded top-k
    /// over all candidates. Scores come from a coarse grid so ties across
    /// shards are common, and node ids are globally unique — exactly the
    /// situation the sharded engine is in.
    #[test]
    fn merge_of_bounded_shard_heaps_equals_the_global_bounded_topk(
        scores in prop::collection::vec(0u8..12, 1usize..120),
        shards in 1usize..9,
        k in 1usize..16,
        rotate in 0usize..7,
    ) {
        let candidates: Vec<Neighbor> = scores
            .iter()
            .enumerate()
            .map(|(node, &s)| Neighbor {
                node: node as u32,
                score: f32::from(s) * 0.125 - 0.5,
            })
            .collect();
        // Round-robin assignment (offset by `rotate`) so shard populations
        // are uneven and some shards may be empty when shards > candidates.
        let mut per_shard: Vec<BoundedTopK> = (0..shards)
            .map(|_| BoundedTopK::new(k, candidates.len()))
            .collect();
        let mut global = BoundedTopK::new(k, candidates.len());
        for (i, &candidate) in candidates.iter().enumerate() {
            per_shard[(i + rotate) % shards].push(candidate);
            global.push(candidate);
        }
        let parts: Vec<TopK> = per_shard.into_iter().map(BoundedTopK::into_topk).collect();
        let part_refs: Vec<&TopK> = parts.iter().collect();
        let merged = merge_topk(&part_refs, k);
        let expected = global.into_topk();
        let m: Vec<(u32, u32)> = merged
            .neighbors()
            .iter()
            .map(|n| (n.node, n.score.to_bits()))
            .collect();
        let e: Vec<(u32, u32)> = expected
            .neighbors()
            .iter()
            .map(|n| (n.node, n.score.to_bits()))
            .collect();
        prop_assert_eq!(m, e);
    }

    /// End-to-end bit-identity on random Gaussian clusters: any shard count
    /// from 1 (degenerate, coordinator-only) to 8, either backend, any k —
    /// the sharded answers are byte-for-byte the single-process answers, and
    /// the union of shard-local candidate sets is the single-process one.
    #[test]
    fn sharded_engine_matches_single_process_bit_for_bit(
        nodes in 20usize..120,
        dim in 4usize..20,
        clusters in 2usize..5,
        k in 1usize..12,
        shards in 1usize..9,
        choice in 0usize..2,
        seed in 0u64..64,
    ) {
        let embeddings = gaussian_clusters(nodes, dim, clusters, 0.1, seed);
        let config = config(backend_of(choice), k);
        let single = QueryEngine::new(EmbeddingIndex::build(&embeddings), config);
        let query_nodes: Vec<u32> = (0..nodes as u32).step_by(7).collect();
        let batch = QueryBatch::from_nodes(single.index(), &query_nodes);
        let expected = single.top_k(&batch);
        let got = sharded(&embeddings, config, shards, None, |engine| {
            let out = engine.top_k(&batch);
            engine.shutdown().expect("shutdown collective");
            out
        });
        bit_identical(&got.results, &expected.results)?;
        prop_assert_eq!(got.stats.candidates_scored, expected.stats.candidates_scored);
    }

    /// Same equivalence on an index made *entirely* of duplicates: every
    /// score ties, so the result is determined solely by the tie-break rule —
    /// any drift in the global-id mapping or the merge comparator shows up
    /// immediately.
    #[test]
    fn sharded_engine_matches_single_process_on_tied_and_duplicate_rows(
        distinct in 2usize..5,
        copies in 3usize..10,
        dim in 4usize..12,
        k in 1usize..10,
        shards in 1usize..9,
        choice in 0usize..2,
        seed in 0u64..64,
    ) {
        let embeddings = tied_embeddings(distinct, copies, dim, seed);
        let config = config(backend_of(choice), k);
        let single = QueryEngine::new(EmbeddingIndex::build(&embeddings), config);
        let query_nodes: Vec<u32> =
            (0..(distinct * copies) as u32).step_by(copies).collect();
        let batch = QueryBatch::from_nodes(single.index(), &query_nodes);
        let expected = single.top_k(&batch);
        let got = sharded(&embeddings, config, shards, None, |engine| engine.top_k(&batch));
        bit_identical(&got.results, &expected.results)?;
    }

    /// Fault property: a panic at a random shard (including the
    /// coordinator's own shard 0) fails the first batch with the injected
    /// payload surfaced, and — because the fault is one-shot and every
    /// endpoint stays in the collective — the *next* batch over the same
    /// engine is already bit-identical to the single-process answer again.
    #[test]
    fn a_random_shard_panic_fails_one_batch_and_the_engine_recovers(
        nodes in 24usize..80,
        dim in 4usize..12,
        k in 1usize..8,
        shards in 2usize..7,
        faulted in 0usize..7,
        choice in 0usize..2,
        seed in 0u64..64,
    ) {
        let faulted = faulted % shards;
        let embeddings = gaussian_clusters(nodes, dim, 3, 0.1, seed);
        let config = config(backend_of(choice), k);
        let single = QueryEngine::new(EmbeddingIndex::build(&embeddings), config);
        let batch = QueryBatch::from_nodes(single.index(), &[0, nodes as u32 / 2]);
        let expected = single.top_k(&batch);
        let outcome = sharded(&embeddings, config, shards, Some(faulted), |engine| {
            let panicked =
                std::panic::catch_unwind(AssertUnwindSafe(|| engine.top_k(&batch)));
            let message = panic_message(panicked.expect_err("faulted batch succeeded").as_ref());
            let retry = engine.top_k(&batch);
            (message, retry)
        });
        let (message, retry) = outcome;
        prop_assert!(
            message.contains("injected fault") && message.contains(&format!("shard {faulted}")),
            "unexpected panic payload: {}",
            message
        );
        bit_identical(&retry.results, &expected.results)?;
    }
}
