//! Scale-out behaviour: end-to-end time and cross-machine traffic as the
//! number of in-process machines grows (the workload behind Figure 6), plus a
//! comparison of the MPGP partitioner against KnightKing's workload-balancing
//! scheme (Figure 10(c)/(d)).
//!
//! Run with: `cargo run --release --example scale_out`

use distger::prelude::*;

fn main() {
    let graph = PaperDataset::LiveJournal.generate(0.25, 5);
    println!(
        "LiveJournal stand-in: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    println!("\n-- scaling the cluster (DistGER) --");
    println!("machines  end-to-end(s)  walker msgs  locality");
    for machines in [1usize, 2, 4, 8] {
        let mut config = DistGerConfig::distger(machines).with_seed(1);
        config.training.dim = 32;
        config.training.epochs = 1;
        let result = run_pipeline(&graph, &config);
        println!(
            "{machines:>8}  {:>13.2}  {:>11}  {:>8.2}",
            result.end_to_end_secs(),
            result.walk_comm.messages,
            result.walk_comm.locality()
        );
    }

    println!("\n-- partitioner ablation on 4 machines --");
    println!("partitioner          walker msgs  local-edge-fraction");
    for partitioner in [
        PartitionerChoice::Mpgp(MpgpConfig::default()),
        PartitionerChoice::WorkloadBalanced,
        PartitionerChoice::Hash,
    ] {
        let mut config = DistGerConfig::distger(4).with_seed(1);
        config.partitioner = partitioner;
        config.training.dim = 32;
        config.training.epochs = 1;
        let result = run_pipeline(&graph, &config);
        println!(
            "{:<20} {:>11}  {:>8.3}",
            partitioner.name(),
            result.walk_comm.messages,
            result.local_edge_fraction
        );
    }
}
