//! Link prediction across systems and machine counts (the workload behind
//! Table 4 and Figure 8).
//!
//! Run with: `cargo run --release --example link_prediction`

use distger::prelude::*;

fn main() {
    let graph = powerlaw_cluster(2_000, 6, 0.6, 42);
    let split = split_edges(&graph, 0.5, 7);
    println!(
        "graph: {} nodes, {} edges ({} train / {} test)",
        graph.num_nodes(),
        graph.num_edges(),
        split.train_graph.num_edges(),
        split.test_positive.len()
    );

    // DistGER on 1 vs 4 machines: the embeddings quality must not depend on
    // the degree of distribution.
    for machines in [1usize, 4] {
        let mut config = DistGerConfig::distger(machines).with_seed(7);
        config.training.dim = 64;
        config.training.epochs = 3;
        let result = run_pipeline(&split.train_graph, &config);
        let auc = evaluate_link_prediction(&result.embeddings, &split);
        println!(
            "DistGER  machines={machines}  AUC={auc:.3}  end-to-end={:.2}s  walk-msgs={}",
            result.end_to_end_secs(),
            result.walk_comm.messages
        );
    }

    // The three walk systems at the same scale (Table 4 style).
    for system in SystemKind::ALL {
        let mut config = system.config(4).with_seed(7);
        config.training.dim = 64;
        config.training.epochs = 3;
        let result = run_pipeline(&split.train_graph, &config);
        let auc = evaluate_link_prediction(&result.embeddings, &split);
        println!(
            "{:<11} AUC={auc:.3}  end-to-end={:.2}s  messages={}",
            system.name(),
            result.end_to_end_secs(),
            result.total_messages()
        );
    }
}
