//! Quickstart: embed a synthetic social graph with DistGER and evaluate the
//! embeddings on link prediction.
//!
//! Run with: `cargo run --release --example quickstart`

use distger::prelude::*;

fn main() {
    // 1. A graph. Real edge lists can be loaded with
    //    `distger::graph::io::load_edge_list`; here we generate a power-law
    //    cluster graph standing in for a small social network.
    let graph = powerlaw_cluster(2_000, 6, 0.6, 42);
    println!(
        "graph: {} nodes, {} edges, max degree {}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.max_degree()
    );

    // 2. Hold out half of the edges for link prediction.
    let split = split_edges(&graph, 0.5, 7);

    // 3. Run the full DistGER pipeline (MPGP + InCoM walks + DSGL) on a
    //    4-machine cluster hosted in this process.
    let mut config = DistGerConfig::distger(4).with_seed(7);
    config.training.dim = 64;
    config.training.epochs = 3;
    let result = run_pipeline(&split.train_graph, &config);

    println!(
        "walks: {} rounds/node, avg length {:.1}, corpus {} tokens",
        result.walk_rounds, result.avg_walk_length, result.corpus_tokens
    );
    println!(
        "cross-machine: {} walker messages ({} bytes), {} sync messages",
        result.walk_comm.messages, result.walk_comm.bytes, result.train_stats.sync_comm.messages
    );
    println!(
        "times: partition {:.2}s, sampling {:.2}s, training {:.2}s (end-to-end {:.2}s)",
        result.times.partition_secs,
        result.times.sampling_secs,
        result.times.training_secs,
        result.end_to_end_secs()
    );

    // 4. Evaluate.
    let auc = evaluate_link_prediction(&result.embeddings, &split);
    println!("link prediction AUC: {auc:.3}");
}
