//! The HuGE corpus, pinned.
//!
//! The constants below were recorded from the per-candidate HuGE step
//! (`huge_acceptance` evaluated for every candidate: galloping intersection,
//! weight search, `tanh`) at commit `5467b1b`, before the arc-aligned
//! acceptance table replaced it. The table changes what a trial costs, not
//! what it decides, so for a fixed seed the corpus, the message count and the
//! message bytes must repeat exactly — on unweighted, weighted and directed
//! graphs, under both the InCoM and the full-path (HuGE-D) presets.
//!
//! If a constant ever has to change, the walk is no longer the walk the
//! benchmark's `link_auc` and `cross_machine_bytes` were measured on: that is
//! a finding to report, not a number to edit.

use distger_cluster::wire::{put_u32, put_u32s, Checksum};
use distger_graph::generate::randomly_orient;
use distger_graph::{barabasi_albert, CsrGraph};
use distger_partition::balanced::workload_balanced_partition;
use distger_walks::{run_distributed_walks, Corpus, WalkEngineConfig};

/// Checksum of the corpus flattened as `len, nodes…` per walk, so both the
/// tokens and the walk boundaries are covered.
fn corpus_checksum(corpus: &Corpus) -> u64 {
    let mut bytes = Vec::with_capacity(4 * (corpus.total_tokens() + corpus.num_walks()));
    for walk in corpus.walks() {
        put_u32(&mut bytes, walk.len() as u32);
        put_u32s(&mut bytes, walk);
    }
    let mut sum = Checksum::new();
    sum.update(&bytes);
    sum.finish(&[])
}

/// `(corpus checksum, tokens, rounds, messages, bytes)` of one 4-machine job.
fn fingerprint(graph: &CsrGraph, config: &WalkEngineConfig) -> (u64, usize, usize, u64, u64) {
    let partitioning = workload_balanced_partition(graph, 4);
    let result = run_distributed_walks(graph, &partitioning, config);
    (
        corpus_checksum(&result.corpus),
        result.corpus.total_tokens(),
        result.rounds,
        result.comm.messages,
        result.comm.bytes,
    )
}

#[test]
fn huge_corpus_is_pinned_to_the_per_candidate_step() {
    let unweighted = barabasi_albert(300, 12, 21);
    let weighted = unweighted.with_skewed_weights(1.5, 8);
    let directed = randomly_orient(&unweighted, 3);
    let distger = WalkEngineConfig::distger().with_seed(17);
    let huge_d = WalkEngineConfig::huge_d().with_seed(17);

    let expected = [
        (
            "unweighted",
            &unweighted,
            (0xbc59483fa05c7de4, 83_768, 17, 58_969, 4_717_520),
            5_948_872,
        ),
        (
            "weighted",
            &weighted,
            (0xbb352d35c3f91b05, 23_569, 6, 16_968, 1_357_440),
            1_525_704,
        ),
        (
            "directed",
            &directed,
            (0xeccf4f8af5c436c4, 70_752, 14, 48_795, 3_903_600),
            4_618_752,
        ),
    ];
    for (name, graph, incom, huge_d_bytes) in expected {
        assert_eq!(
            fingerprint(graph, &distger),
            incom,
            "{name}: DistGER preset"
        );
        // HuGE-D walks the same walks and ships the path with every message.
        assert_eq!(
            fingerprint(graph, &huge_d),
            (incom.0, incom.1, incom.2, incom.3, huge_d_bytes),
            "{name}: HuGE-D preset"
        );
    }
}
