//! Property-based tests for the walk measurements and engines.

use distger_graph::{GraphBuilder, NodeId};
use distger_partition::{mpgp_partition, MpgpConfig, Partitioning};
use distger_walks::info::{walk_entropy, FullPathInfo, IncrementalInfo};
use distger_walks::models::{huge_acceptance, propose_next};
use distger_walks::rng::SplitMix64;
use distger_walks::{
    run_distributed_walks, LengthPolicy, TransitionTables, WalkCountPolicy, WalkEngineConfig,
    WalkModel,
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
        for walk in result.corpus.view().iter() {
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
    /// seed and machine count InCoM, which counts through it, produces the
    /// corpus and message count of the FullPath mode, which never consults a
    /// frequency store at all. (The store itself is checked against the
    /// seed's nested-`HashMap` oracle in `freq.rs`.)
    #[test]
    fn flat_store_matches_full_path(
        seed in 0u64..12,
        machines in 1usize..5,
    ) {
        let g = distger_graph::barabasi_albert(160, 3, seed);
        let p = mpgp_partition(&g, machines, MpgpConfig::default());
        let flat = run_distributed_walks(&g, &p, &WalkEngineConfig::distger().with_seed(seed));
        let full_path = run_distributed_walks(&g, &p, &WalkEngineConfig::huge_d().with_seed(seed));
        prop_assert_eq!(&flat.corpus, &full_path.corpus);
        prop_assert_eq!(flat.comm.messages, full_path.comm.messages);
        prop_assert_eq!(flat.rounds, full_path.rounds);
    }

    /// On weighted graphs every walk the alias draw emits must still be a
    /// real path and cover every source, and the engine must report the
    /// table residency: 8 bytes per arc of alias arrays, plus 4 per arc of
    /// acceptance probabilities when the model is HuGE.
    #[test]
    fn weighted_walks_are_paths(
        seed in 0u64..10,
        machines in 1usize..4,
    ) {
        let g = distger_graph::barabasi_albert(120, 3, seed).with_skewed_weights(1.5, seed);
        let p = mpgp_partition(&g, machines, MpgpConfig::default());
        let mut cfg = WalkEngineConfig::knightking_routine(WalkModel::DeepWalk).with_seed(seed);
        cfg.length = LengthPolicy::Fixed(12);
        cfg.walks_per_node = WalkCountPolicy::Fixed(1);
        for (model, bytes_per_arc) in [(WalkModel::DeepWalk, 8), (WalkModel::Huge, 12)] {
            let result = run_distributed_walks(&g, &p, &cfg.with_model(model));
            prop_assert_eq!(result.corpus.num_walks(), g.num_nodes());
            prop_assert_eq!(result.alias_table_bytes, g.num_arcs() * bytes_per_arc);
            for walk in result.corpus.view().iter() {
                for pair in walk.windows(2) {
                    prop_assert!(g.has_edge(pair[0], pair[1]), "non-edge in weighted walk");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Table ≡ formula: on random weighted / unweighted, directed /
    /// undirected graphs — an isolated node and a degree-1 node always
    /// included — every slot of the acceptance table is `huge_acceptance` of
    /// its arc rounded to `f32`, however many threads split the build, the
    /// array is there exactly when the model is HuGE, and the alias arrays
    /// exactly when the graph is weighted.
    #[test]
    fn acceptance_table_equals_the_per_arc_formula(
        edges in prop::collection::vec((0u32..30, 0u32..30), 0..150),
        directed in any::<bool>(),
        weighted in any::<bool>(),
        threads in 1usize..6,
        seed in 0u64..50,
    ) {
        let mut b = if directed { GraphBuilder::new_directed() } else { GraphBuilder::new_undirected() };
        for (u, v) in edges { b.add_edge(u, v); }
        b.add_edge(30, 0); // node 30: a single out-arc
        b.reserve_nodes(32); // node 31: isolated
        let mut g = b.build();
        if weighted { g = g.with_skewed_weights(1.5, seed); }
        let tables = TransitionTables::build(&g, &WalkModel::Huge, threads);
        let accept = tables.acceptance();
        prop_assert_eq!(accept.len(), g.num_arcs());
        for u in 0..g.num_nodes() as NodeId {
            for (slot, &v) in g.arc_range(u).zip(g.neighbors(u)) {
                let want = huge_acceptance(&g, u, v) as f32;
                prop_assert!((0.0..=1.0).contains(&want));
                prop_assert_eq!(accept[slot].to_bits(), want.to_bits(), "arc {} -> {}", u, v);
            }
        }
        let alias_bytes = if weighted { 8 } else { 0 };
        prop_assert_eq!(tables.memory_bytes(), g.num_arcs() * (alias_bytes + 4));
        let draw_only = TransitionTables::build(&g, &WalkModel::DeepWalk, threads);
        prop_assert!(draw_only.acceptance().is_empty());
        prop_assert_eq!(draw_only.memory_bytes(), g.num_arcs() * alias_bytes);
    }
}

/// The HuGE step ≡ its distribution. At a hub of a skewed-weight graph the
/// walking-backtracking loop — up to 64 vetted candidates, then one accepted
/// unvetted — lands on neighbour `v` with probability
/// `p(v) = q(v)·a(v)·(1 − r⁶⁴)/(1 − r) + r⁶⁴·q(v)`, where `q` is the
/// weight-proportional proposal, `a` the acceptance-table row and
/// `r = 1 − Σ q·a` the chance that one trial rejects. 50 k draws against that
/// exact law, by chi-squared.
#[test]
fn huge_step_matches_its_exact_distribution() {
    let g = distger_graph::planted_partition(300, 4, 0.15, 0.15, 0.0, 23)
        .graph
        .with_skewed_weights(1.5, 8);
    let tables = TransitionTables::build(&g, &WalkModel::Huge, 1);
    // `(q, reject)` of a node: the weight-proportional proposal and the chance
    // that one trial rejects.
    let trial = |u: NodeId| {
        let weights = g.neighbor_weights(u).unwrap();
        let total: f64 = weights.iter().map(|&w| w as f64).sum();
        let q: Vec<f64> = weights.iter().map(|&w| w as f64 / total).collect();
        let row = &tables.acceptance()[g.arc_range(u)];
        let accept: f64 = q.iter().zip(row).map(|(q, &a)| q * a as f64).sum();
        (q, 1.0 - accept)
    };
    // Of the ten highest-degree nodes, the one that rejects most, so that the
    // fall-through term of the law carries weight.
    let hub = *g.nodes_by_degree_desc()[..10]
        .iter()
        .max_by(|&&a, &&b| trial(a).1.total_cmp(&trial(b).1))
        .unwrap();
    let neighbors = g.neighbors(hub);
    let draws = 50_000usize;
    let row = &tables.acceptance()[g.arc_range(hub)];
    let (q, reject) = trial(hub);
    let fall_through = reject.powi(64);
    assert!(
        fall_through > 1e-2,
        "the hub should exercise the MAX_TRIALS fall-through, r^64 = {fall_through}"
    );
    let vetted = (1.0 - fall_through) / (1.0 - reject);
    let law: Vec<f64> = q
        .iter()
        .zip(row)
        .map(|(q, &a)| q * a as f64 * vetted + fall_through * q)
        .collect();
    assert!((law.iter().sum::<f64>() - 1.0).abs() < 1e-9);

    let mut counts = vec![0u64; neighbors.len()];
    let mut rng = SplitMix64::new(2024);
    for _ in 0..draws {
        let v = propose_next(&WalkModel::Huge, &g, &tables, None, hub, &mut rng).unwrap();
        counts[neighbors.binary_search(&v).unwrap()] += 1;
    }
    // Cells expecting fewer than 5 draws are pooled into one, the usual
    // condition for the chi-squared approximation.
    let (mut chi, mut cells) = (0.0, 0usize);
    let (mut pooled_obs, mut pooled_exp) = (0.0, 0.0);
    for (&obs, &p) in counts.iter().zip(&law) {
        let expected = p * draws as f64;
        if expected < 5.0 {
            pooled_obs += obs as f64;
            pooled_exp += expected;
        } else {
            chi += (obs as f64 - expected).powi(2) / expected;
            cells += 1;
        }
    }
    if pooled_exp > 0.0 {
        chi += (pooled_obs - pooled_exp).powi(2) / pooled_exp;
        cells += 1;
    }
    // E[chi²] = df, Var = 2·df: df + 6·sqrt(2·df) is far beyond any
    // plausible fluctuation, and the fixed seed makes the test repeat.
    let df = (cells - 1) as f64;
    assert!(
        cells > 20,
        "the hub should have many neighbours, got {cells} cells"
    );
    assert!(
        chi < df + 6.0 * (2.0 * df).sqrt(),
        "chi² {chi:.1} against df {df}"
    );
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

    /// `Corpus::split_assignment`'s heap-based least-loaded assignment is
    /// bit-identical to the reference greedy `O(parts)` scan it replaced
    /// (same part for every walk, in walk order), and shard load balance
    /// obeys the greedy invariant: the spread between the heaviest and
    /// lightest shard never exceeds the longest walk.
    #[test]
    fn heap_split_matches_greedy_scan_and_balances(
        lengths in prop::collection::vec(1usize..40, 0..120),
        parts in 1usize..9,
    ) {
        let num_nodes = 4;
        let walks: Vec<Vec<NodeId>> = lengths
            .iter()
            .enumerate()
            .map(|(i, &len)| vec![(i % num_nodes) as NodeId; len])
            .collect();
        let corpus = distger_walks::Corpus::from_walks(walks.clone(), num_nodes);
        let assignment = corpus.split_assignment(parts);

        // Reference: the former sequential least-loaded scan (first minimum
        // wins ties, i.e. the smallest part index).
        let mut expected = Vec::with_capacity(walks.len());
        let mut loads = vec![0usize; parts];
        for walk in &walks {
            let target = (0..parts).min_by_key(|&i| loads[i]).unwrap();
            loads[target] += walk.len();
            expected.push(target);
        }
        prop_assert_eq!(&assignment, &expected);

        // Balance: max − min shard tokens ≤ the longest single walk.
        let mut token_counts = vec![0usize; parts];
        for (walk, &part) in corpus.view().iter().zip(&assignment) {
            token_counts[part] += walk.len();
        }
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

    /// The arena is a pure representation change: building a corpus from
    /// per-walk vecs and reading them back is the identity once empty walks
    /// are dropped, every sub-range view reads the matching slice of the
    /// source, and `chunks` tiles the walks in order.
    #[test]
    fn walks_arena_round_trips_and_views_match_slices(
        source in prop::collection::vec(prop::collection::vec(0u32..50, 0..12), 0..40),
        cut in (0usize..40, 0usize..40),
        chunk in 1usize..6,
    ) {
        let corpus = distger_walks::Corpus::from_walks(source.clone(), 50);
        prop_assert_eq!(corpus.walks(), source.iter().filter(|w| !w.is_empty()).cloned().collect::<Vec<_>>());
        let kept: Vec<&[NodeId]> = source.iter().filter(|w| !w.is_empty()).map(|w| &w[..]).collect();
        let view = corpus.view();
        prop_assert_eq!(view.iter().collect::<Vec<_>>(), kept.clone());
        prop_assert_eq!(view.len(), kept.len());
        prop_assert_eq!(view.tokens(), kept.concat());
        let (lo, hi) = (cut.0.min(cut.1).min(kept.len()), cut.0.max(cut.1).min(kept.len()));
        let sub = view.slice(lo..hi);
        prop_assert_eq!(sub.iter().collect::<Vec<_>>(), kept[lo..hi].to_vec());
        prop_assert_eq!(sub.tokens(), kept[lo..hi].concat());
        for (i, walk) in kept[lo..hi].iter().enumerate() {
            prop_assert_eq!(sub.walk(i), *walk);
        }
        let chunks: Vec<Vec<&[NodeId]>> = view.chunks(chunk).map(|c| c.iter().collect()).collect();
        prop_assert!(chunks.iter().all(|c| !c.is_empty() && c.len() <= chunk));
        prop_assert_eq!(chunks.concat(), kept);
    }
}
