//! Property-based tests for the walk measurements and engines.

use distger_graph::{GraphBuilder, NodeId};
use distger_partition::{mpgp_partition, MpgpConfig, Partitioning};
use distger_walks::info::{walk_entropy, FullPathInfo, IncrementalInfo};
use distger_walks::{
    run_distributed_walks, FreqBackend, LengthPolicy, SamplingBackend, WalkCountPolicy,
    WalkEngineConfig, WalkModel,
};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1: the incremental entropy equals the full recomputation for
    /// arbitrary node sequences.
    #[test]
    fn incremental_entropy_matches_full(walk in prop::collection::vec(0u32..20, 1..120)) {
        let mut inc = IncrementalInfo::default();
        let mut full = FullPathInfo::default();
        let mut counts: HashMap<NodeId, u64> = HashMap::new();
        for (i, &v) in walk.iter().enumerate() {
            let prev = counts.get(&v).copied().unwrap_or(0);
            let si = inc.accept(prev);
            let sf = full.accept(v);
            *counts.entry(v).or_insert(0) += 1;
            let expected = walk_entropy(&walk[..=i]);
            prop_assert!((si.entropy - expected).abs() < 1e-8, "incremental diverged at {i}");
            prop_assert!((sf.entropy - expected).abs() < 1e-8, "full-path diverged at {i}");
            prop_assert!((si.r_squared - sf.r_squared).abs() < 1e-8);
            prop_assert!(si.entropy >= -1e-12);
            prop_assert!(si.r_squared >= 0.0 && si.r_squared <= 1.0);
        }
    }

    /// Entropy is bounded by log2 of the number of distinct nodes.
    #[test]
    fn entropy_bounded_by_log_distinct(walk in prop::collection::vec(0u32..50, 1..200)) {
        let h = walk_entropy(&walk);
        let distinct = walk.iter().collect::<std::collections::HashSet<_>>().len() as f64;
        prop_assert!(h <= distinct.log2() + 1e-9);
        prop_assert!(h >= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Distributed walks over arbitrary small graphs: every produced walk is a
    /// real path in the graph and every node starts the configured number of
    /// walks.
    #[test]
    fn walks_are_paths_and_cover_sources(
        edges in prop::collection::vec((0u32..25, 0u32..25), 10..80),
        machines in 1usize..4,
        seed in 0u64..20,
    ) {
        let mut b = GraphBuilder::new_undirected();
        for (u, v) in edges { b.add_edge(u, v); }
        b.reserve_nodes(25);
        let g = b.build();
        let p = mpgp_partition(&g, machines, MpgpConfig { seed, ..MpgpConfig::default() });
        let mut cfg = WalkEngineConfig::knightking_routine(WalkModel::DeepWalk).with_seed(seed);
        cfg.length = LengthPolicy::Fixed(12);
        cfg.walks_per_node = WalkCountPolicy::Fixed(1);
        let result = run_distributed_walks(&g, &p, &cfg);
        prop_assert_eq!(result.corpus.num_walks(), g.num_nodes());
        for walk in result.corpus.walks() {
            prop_assert!(walk.len() <= 12);
            for pair in walk.windows(2) {
                prop_assert!(g.has_edge(pair[0], pair[1]), "non-edge in walk");
            }
        }
        // Message bytes must equal 32 per cross-machine hop for routine walks.
        prop_assert_eq!(result.comm.bytes, result.comm.messages * 32);
    }

    /// InCoM message accounting: exactly 80 bytes per cross-machine hop.
    #[test]
    fn incom_messages_are_constant_size(seed in 0u64..10) {
        let g = distger_graph::barabasi_albert(120, 3, seed);
        let p = mpgp_partition(&g, 3, MpgpConfig::default());
        let result = run_distributed_walks(&g, &p, &WalkEngineConfig::distger().with_seed(seed));
        prop_assert_eq!(result.comm.bytes, result.comm.messages * 80);
    }

    /// The flat frequency store is a pure representation change: for any
    /// seed and machine count it must produce corpora and communication
    /// statistics byte-identical to the seed's nested-HashMap semantics
    /// (retained as `FreqBackend::NestedReference`) *and* to the FullPath
    /// mode, which never consults a frequency store at all.
    #[test]
    fn flat_store_matches_nested_reference_and_full_path(
        seed in 0u64..12,
        machines in 1usize..5,
    ) {
        let g = distger_graph::barabasi_albert(160, 3, seed);
        let p = mpgp_partition(&g, machines, MpgpConfig::default());
        let flat = run_distributed_walks(&g, &p, &WalkEngineConfig::distger().with_seed(seed));
        let nested = run_distributed_walks(
            &g,
            &p,
            &WalkEngineConfig::distger()
                .with_seed(seed)
                .with_freq_backend(FreqBackend::NestedReference),
        );
        let full_path = run_distributed_walks(&g, &p, &WalkEngineConfig::huge_d().with_seed(seed));
        prop_assert_eq!(&flat.corpus, &nested.corpus);
        prop_assert_eq!(&flat.comm, &nested.comm);
        prop_assert_eq!(&flat.corpus, &full_path.corpus);
        prop_assert_eq!(flat.comm.messages, full_path.comm.messages);
        prop_assert_eq!(flat.rounds, nested.rounds);
    }

    /// The alias-table sampler is a pure representation change on unweighted
    /// graphs: for any seed and machine count it consumes the same random
    /// draws as the reference linear scan, so the two backends — crossed with
    /// either frequency store — must produce byte-identical corpora and
    /// communication statistics.
    #[test]
    fn alias_backend_matches_linear_scan_on_unweighted(
        seed in 0u64..12,
        machines in 1usize..5,
    ) {
        let g = distger_graph::barabasi_albert(160, 3, seed);
        let p = mpgp_partition(&g, machines, MpgpConfig::default());
        let runs: Vec<_> = [
            (SamplingBackend::Alias, FreqBackend::Flat),
            (SamplingBackend::LinearScan, FreqBackend::Flat),
            (SamplingBackend::Alias, FreqBackend::NestedReference),
            (SamplingBackend::LinearScan, FreqBackend::NestedReference),
        ]
        .into_iter()
        .map(|(sampling, freq)| {
            run_distributed_walks(
                &g,
                &p,
                &WalkEngineConfig::distger()
                    .with_seed(seed)
                    .with_sampling_backend(sampling)
                    .with_freq_backend(freq),
            )
        })
        .collect();
        for other in &runs[1..] {
            prop_assert_eq!(&runs[0].corpus, &other.corpus);
            prop_assert_eq!(&runs[0].comm, &other.comm);
            prop_assert_eq!(runs[0].rounds, other.rounds);
        }
    }

    /// On weighted graphs the alias backend consumes randomness differently,
    /// so corpora are only equal in distribution — but every walk it emits
    /// must still be a real path, cover every source, and the engine must
    /// report the 8-bytes-per-arc table residency.
    #[test]
    fn alias_backend_weighted_walks_are_paths(
        seed in 0u64..10,
        machines in 1usize..4,
    ) {
        let g = distger_graph::barabasi_albert(120, 3, seed).with_skewed_weights(1.5, seed);
        let p = mpgp_partition(&g, machines, MpgpConfig::default());
        let mut cfg = WalkEngineConfig::knightking_routine(WalkModel::DeepWalk).with_seed(seed);
        cfg.length = LengthPolicy::Fixed(12);
        cfg.walks_per_node = WalkCountPolicy::Fixed(1);
        let result = run_distributed_walks(&g, &p, &cfg);
        prop_assert_eq!(result.corpus.num_walks(), g.num_nodes());
        prop_assert_eq!(result.alias_table_bytes, g.num_arcs() * 8);
        for walk in result.corpus.walks() {
            for pair in walk.windows(2) {
                prop_assert!(g.has_edge(pair[0], pair[1]), "non-edge in weighted walk");
            }
        }
    }
}

#[test]
fn single_machine_and_multi_machine_walks_agree() {
    // The sampled corpus must be independent of the partitioning: walkers are
    // deterministic given (seed, walk_id) no matter where they execute.
    let g = distger_graph::barabasi_albert(150, 3, 5);
    let cfg = WalkEngineConfig::distger().with_seed(9);
    let single = run_distributed_walks(&g, &Partitioning::single_machine(150), &cfg);
    let multi = run_distributed_walks(&g, &mpgp_partition(&g, 4, MpgpConfig::default()), &cfg);
    assert_eq!(single.corpus, multi.corpus);
    assert_eq!(single.comm.messages, 0);
    assert!(multi.comm.messages > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Corpus::split`'s heap-based least-loaded assignment is bit-identical
    /// to the reference greedy `O(parts)` scan it replaced (same shards, same
    /// walk order), and shard load balance obeys the greedy invariant: the
    /// spread between the heaviest and lightest shard never exceeds the
    /// longest walk.
    #[test]
    fn heap_split_matches_greedy_scan_and_balances(
        lengths in prop::collection::vec(1usize..40, 0..120),
        parts in 1usize..9,
    ) {
        let num_nodes = 4;
        let walks: Vec<Vec<distger_graph::NodeId>> = lengths
            .iter()
            .enumerate()
            .map(|(i, &len)| vec![(i % num_nodes) as distger_graph::NodeId; len])
            .collect();
        let corpus = distger_walks::Corpus::from_walks(walks.clone(), num_nodes);
        let shards = corpus.split(parts);

        // Reference: the former sequential least-loaded scan (first minimum
        // wins ties, i.e. the smallest part index).
        let mut expected: Vec<Vec<&Vec<distger_graph::NodeId>>> = vec![Vec::new(); parts];
        let mut loads = vec![0usize; parts];
        for walk in &walks {
            let target = (0..parts).min_by_key(|&i| loads[i]).unwrap();
            loads[target] += walk.len();
            expected[target].push(walk);
        }
        for (shard, reference) in shards.iter().zip(&expected) {
            prop_assert_eq!(shard.num_walks(), reference.len());
            for (got, &want) in shard.walks().iter().zip(reference) {
                prop_assert_eq!(got, want);
            }
        }

        // Balance: max − min shard tokens ≤ the longest single walk.
        let token_counts: Vec<usize> = shards.iter().map(|s| s.total_tokens()).collect();
        let spread = token_counts.iter().max().unwrap() - token_counts.iter().min().unwrap();
        prop_assert!(
            spread <= lengths.iter().copied().max().unwrap_or(0),
            "shard spread {spread} exceeds longest walk"
        );
        prop_assert_eq!(
            token_counts.iter().sum::<usize>(),
            corpus.total_tokens(),
            "split lost or duplicated tokens"
        );
    }
}
