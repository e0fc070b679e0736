//! Cross-crate integration tests exercising the public facade API exactly as
//! a downstream user would.

use distger::prelude::*;

/// The full DistGER pipeline on a community graph: embeddings must recover
/// enough structure for link prediction to clearly beat chance, and the
/// communication profile must match the paper's claims (constant-size InCoM
/// messages, fewer messages under MPGP than under workload balancing).
#[test]
fn distger_end_to_end_quality_and_communication() {
    let graph = distger::graph::community_powerlaw(600, 12, 5, 0.1, 21);
    let split = split_edges(&graph, 0.5, 3);

    let mut config = DistGerConfig::distger(4).small().with_seed(3);
    config.training.epochs = 3;
    let result = run_pipeline(&split.train_graph, &config);

    // Quality.
    let auc = evaluate_link_prediction(&result.embeddings, &split);
    assert!(auc > 0.75, "link prediction AUC too low: {auc}");

    // InCoM messages are exactly 80 bytes each.
    assert_eq!(result.walk_comm.bytes, result.walk_comm.messages * 80);

    // MPGP keeps a healthy fraction of walk steps local.
    assert!(result.walk_comm.locality() > 0.3);

    // The same run under workload balancing sends more walker messages.
    let mut wb = config;
    wb.partitioner = PartitionerChoice::WorkloadBalanced;
    let wb_result = run_pipeline(&split.train_graph, &wb);
    assert!(
        result.walk_comm.messages < wb_result.walk_comm.messages,
        "MPGP ({}) should cut cross-machine messages vs workload balancing ({})",
        result.walk_comm.messages,
        wb_result.walk_comm.messages
    );
}

/// HuGE-D and DistGER sample identical corpora for the same seed; the only
/// differences are computation and message size — the heart of InCoM (§3.1).
#[test]
fn incom_equals_full_path_semantics_but_cheaper_messages() {
    let graph = distger::graph::community_powerlaw(400, 8, 4, 0.15, 7);
    let partitioning = distger::partition::mpgp_partition(&graph, 4, MpgpConfig::default());

    let incom = distger::walks::run_distributed_walks(
        &graph,
        &partitioning,
        &WalkEngineConfig::distger().with_seed(9),
    );
    let huge_d = distger::walks::run_distributed_walks(
        &graph,
        &partitioning,
        &WalkEngineConfig::huge_d().with_seed(9),
    );
    assert_eq!(incom.corpus, huge_d.corpus);
    assert_eq!(incom.comm.messages, huge_d.comm.messages);
    assert!(incom.comm.bytes < huge_d.comm.bytes);
}

/// The general API (§6.6): DeepWalk and node2vec running under the
/// information-driven termination produce shorter walks than the routine
/// configuration while still covering every node.
#[test]
fn general_api_shortens_routine_walks() {
    let graph = distger::graph::community_powerlaw(400, 8, 4, 0.1, 13);
    let partitioning = distger::partition::mpgp_partition(&graph, 2, MpgpConfig::default());

    for model in [WalkModel::DeepWalk, WalkModel::Node2Vec { p: 0.5, q: 2.0 }] {
        let info = distger::walks::run_distributed_walks(
            &graph,
            &partitioning,
            &WalkEngineConfig::distger_general(model).with_seed(4),
        );
        let routine = distger::walks::run_distributed_walks(
            &graph,
            &partitioning,
            &WalkEngineConfig::knightking_routine(model).with_seed(4),
        );
        assert!(info.avg_walk_length() < 80.0);
        assert!(
            info.corpus.total_tokens() < routine.corpus.total_tokens(),
            "information-driven corpus must be more concise for {}",
            model.name()
        );
        // Every node still appears in the corpus.
        let freq = info.corpus.frequencies();
        assert!(freq.iter().all(|&f| f > 0));
    }
}

/// Every compared system runs end to end from its configuration preset and
/// produces embeddings of the right shape.
#[test]
fn all_systems_run_via_uniform_interface() {
    let graph = distger::graph::community_powerlaw(240, 6, 4, 0.1, 5);
    for system in SystemKind::ALL {
        let mut config = system.config(2).with_seed(2);
        config.training.dim = 16;
        config.training.epochs = 1;
        let result = run_pipeline(&graph, &config);
        assert_eq!(result.embeddings.num_nodes(), 240, "{}", system.name());
    }
}

/// Node classification on a labelled planted-partition graph: DistGER
/// embeddings must separate the communities well.
#[test]
fn node_classification_recovers_communities() {
    let labeled = distger::graph::planted_partition(300, 6, 0.15, 0.005, 0.2, 17);
    let mut config = DistGerConfig::distger(2).small().with_seed(6);
    config.training.epochs = 3;
    let result = run_pipeline(&labeled.graph, &config);
    let scores = evaluate_classification(
        &result.embeddings,
        &labeled.labels,
        labeled.num_labels,
        0.5,
        3,
        9,
    );
    assert!(
        scores.micro_f1 > 0.6,
        "micro-F1 too low: {}",
        scores.micro_f1
    );
    assert!(
        scores.macro_f1 > 0.5,
        "macro-F1 too low: {}",
        scores.macro_f1
    );
}

/// Weighted and directed graphs are supported end to end (§8.1).
#[test]
fn weighted_and_directed_graphs_run_end_to_end() {
    let base = distger::graph::community_powerlaw(200, 5, 4, 0.1, 3);
    let weighted = base.with_random_weights(1.0, 5.0, 2);
    let directed = distger::graph::generate::randomly_orient(&base, 4);

    for graph in [weighted, directed] {
        let config = DistGerConfig::distger(2).small().with_seed(8);
        let result = run_pipeline(&graph, &config);
        assert_eq!(result.embeddings.num_nodes(), graph.num_nodes());
        assert!(result.corpus_tokens > 0);
    }
}
