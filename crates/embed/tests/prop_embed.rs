//! Property-based tests for the embedding learner's supporting structures.

use distger_cluster::wire::testing::assert_total;
use distger_embed::negative::NegativeTable;
use distger_embed::sync::select_sync_ranks;
use distger_embed::{
    train_distributed, train_distributed_supervised, Embeddings, FaultPlan, RecoveryPolicy,
    SyncStrategy, TrainerConfig, Vocab,
};
use distger_walks::rng::SplitMix64;
use distger_walks::Corpus;
use proptest::prelude::*;

proptest! {
    /// The frequency-ordered vocabulary is a bijection between nodes and
    /// ranks, with non-increasing frequencies by rank.
    #[test]
    fn vocab_is_bijective_and_sorted(freqs in prop::collection::vec(0u64..1000, 1..200)) {
        let vocab = Vocab::from_frequencies(&freqs);
        prop_assert_eq!(vocab.len(), freqs.len());
        for node in 0..freqs.len() as u32 {
            prop_assert_eq!(vocab.node_at(vocab.rank_of(node)), node);
            prop_assert_eq!(vocab.freq_at(vocab.rank_of(node)), freqs[node as usize]);
        }
        prop_assert!(vocab.frequencies().windows(2).all(|w| w[0] >= w[1]));
    }

    /// Hotness blocks tile the rank space exactly once and group equal
    /// frequencies.
    #[test]
    fn hotness_blocks_tile_rank_space(freqs in prop::collection::vec(0u64..50, 1..150)) {
        let vocab = Vocab::from_frequencies(&freqs);
        let blocks = vocab.hotness_blocks();
        let mut expected_start = 0u32;
        for &(start, end) in &blocks {
            prop_assert_eq!(start, expected_start, "blocks must be contiguous");
            prop_assert!(end > start);
            let f = vocab.freq_at(start);
            for rank in start..end {
                prop_assert_eq!(vocab.freq_at(rank), f);
            }
            if end < vocab.len() as u32 {
                prop_assert_ne!(vocab.freq_at(end), f, "maximal runs only");
            }
            expected_start = end;
        }
        prop_assert_eq!(expected_start as usize, freqs.len());
    }

    /// The negative table only samples ranks whose frequency is non-zero
    /// (unless the whole corpus is empty) and always returns valid ranks.
    #[test]
    fn negative_table_samples_valid_ranks(
        freqs in prop::collection::vec(0u64..100, 1..80),
        seeds in prop::collection::vec(any::<u64>(), 50),
    ) {
        let vocab = Vocab::from_frequencies(&freqs);
        let table = NegativeTable::with_size(&vocab, 4096);
        let any_nonzero = freqs.iter().any(|&f| f > 0);
        for seed in seeds {
            let rank = table.sample(seed);
            prop_assert!((rank as usize) < freqs.len());
            if any_nonzero {
                prop_assert!(vocab.freq_at(rank) > 0, "zero-frequency rank sampled");
            }
        }
    }

    /// Hotness-block synchronization selects exactly one rank per non-empty
    /// block, each inside its block.
    #[test]
    fn hotness_sync_selects_one_rank_per_block(
        freqs in prop::collection::vec(0u64..20, 1..120),
        seed in any::<u64>(),
    ) {
        let vocab = Vocab::from_frequencies(&freqs);
        let mut rng = SplitMix64::new(seed);
        let ranks = select_sync_ranks(SyncStrategy::HotnessBlock, &vocab, &mut rng);
        let nonzero_blocks: Vec<(u32, u32)> = vocab
            .hotness_blocks()
            .into_iter()
            .filter(|&(s, _)| vocab.freq_at(s) > 0)
            .collect();
        prop_assert_eq!(ranks.len(), nonzero_blocks.len());
        for (rank, (start, end)) in ranks.iter().zip(nonzero_blocks) {
            prop_assert!(*rank >= start && *rank < end);
        }
    }

    /// Embedding similarity helpers: dot is symmetric, cosine stays in
    /// [-1, 1] and cosine of a vector with itself is 1 (when non-zero).
    #[test]
    fn embedding_similarities_are_consistent(
        data in prop::collection::vec(-1.0f32..1.0, 8..64),
    ) {
        let dim = 4;
        let usable = (data.len() / dim) * dim;
        let emb = Embeddings::from_node_major(data[..usable].to_vec(), dim);
        let n = emb.num_nodes() as u32;
        for u in 0..n {
            for v in 0..n {
                prop_assert!((emb.dot(u, v) - emb.dot(v, u)).abs() < 1e-5);
                let c = emb.cosine(u, v);
                prop_assert!((-1.0001..=1.0001).contains(&c));
            }
            let norm: f32 = emb.vector(u).iter().map(|x| x * x).sum();
            if norm > 1e-6 {
                prop_assert!((emb.cosine(u, u) - 1.0).abs() < 1e-4);
            }
        }
    }
}

/// A fresh temp-file path per call, so parallel proptest cases never collide.
fn scratch_file(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("distger_prop_embed");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Save→load round trip through both on-disk formats: the text format
    /// reproduces every value (display → parse of f32 is lossless), the
    /// binary store is defined to be bit-exact.
    #[test]
    fn save_load_round_trips_both_formats(
        data in prop::collection::vec(-1.0e3f32..1.0e3, 0..96),
        dim in 1usize..6,
    ) {
        let usable = (data.len() / dim) * dim;
        let emb = Embeddings::from_node_major(data[..usable].to_vec(), dim);

        let text = scratch_file("roundtrip.txt");
        emb.save_text(&text).unwrap();
        let from_text = Embeddings::load_text(&text).unwrap();
        prop_assert_eq!(&from_text, &emb);
        std::fs::remove_file(&text).ok();

        let binary = scratch_file("roundtrip.bin");
        emb.save_binary(&binary).unwrap();
        let from_binary = Embeddings::load_binary(&binary).unwrap();
        prop_assert_eq!(&from_binary, &emb);
        std::fs::remove_file(&binary).ok();
    }

    /// Every hostile variant (any prefix, any bit flip, any lying length
    /// field) of a random valid binary store must surface as an error, never
    /// a panic or a silently wrong result: every byte is covered by the
    /// magic, the version, or the checksum over header and payload.
    #[test]
    fn hostile_binary_stores_are_always_rejected(
        data in prop::collection::vec(-10.0f32..10.0, 4..40),
    ) {
        let usable = (data.len() / 4) * 4;
        let emb = Embeddings::from_node_major(data[..usable].to_vec(), 4);
        let path = scratch_file("hostile.bin");
        emb.save_binary(&path).unwrap();
        let store = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(assert_total(&store, Embeddings::decode_binary), 0);
    }
}

/// A two-community corpus small enough for property cases: walks alternate
/// between nodes {0..4} and {5..9}.
fn training_corpus() -> Corpus {
    let mut walks = Vec::new();
    let mut rng = SplitMix64::new(33);
    for i in 0..120 {
        let base: u32 = if i % 2 == 0 { 0 } else { 5 };
        let walk: Vec<u32> = (0..10).map(|_| base + rng.next_bounded(5) as u32).collect();
        walks.push(walk);
    }
    Corpus::from_walks(walks, 10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Trainer-path fault tolerance: an injected worker panic in any chunk,
    /// on any machine, recovers — the live
    /// replicas plus the completed-chunk counter are the checkpoint — and
    /// the work accounting stays deterministic: crashed chunks are discarded
    /// and re-executed exactly once, so pair and sync totals match the
    /// fault-free run's.
    #[test]
    fn injected_trainer_fault_recovers_with_deterministic_accounting(
        fault_machine in 0usize..4,
        fault_chunk in 0u64..4, // `small()` runs epochs × sync_rounds = 4 chunks
    ) {
        let corpus = training_corpus();
        let config = TrainerConfig::small().with_dim(8);
        let (_, clean) = train_distributed(&corpus, 4, &config);

        let faults = FaultPlan::new().panic_at(fault_machine, fault_chunk, 0).build();
        let (_, stats) = train_distributed_supervised(
            &corpus,
            4,
            &config.with_recovery_policy(RecoveryPolicy::retries(2)),
            Some(&faults),
        )
        .expect("one injected fault must recover within two retries");

        prop_assert_eq!(faults.injected_faults(), 1, "the fault must fire");
        prop_assert!(stats.recovered_chunks >= 1);
        prop_assert_eq!(stats.pairs_processed, clean.pairs_processed);
        prop_assert_eq!(&stats.sync_comm, &clean.sync_comm);
    }

    /// With a zero-retry budget the supervised trainer still never
    /// deadlocks: any injected panic surfaces as a clean `RecoveryExhausted`
    /// after exactly one attempt, naming the crash coordinates.
    #[test]
    fn trainer_fault_without_retries_is_a_clean_error(
        fault_machine in 0usize..4,
        fault_chunk in 0u64..4,
    ) {
        let corpus = training_corpus();
        let config = TrainerConfig::small().with_dim(8);
        let faults = FaultPlan::new().panic_at(fault_machine, fault_chunk, 0).build();
        let err = train_distributed_supervised(&corpus, 4, &config, Some(&faults))
            .expect_err("zero retries cannot absorb a panic");
        prop_assert_eq!(err.attempts, 1);
        // The injector names the chunk coordinate "round".
        prop_assert!(
            err.last_panic
                .contains(&format!("injected fault: machine {fault_machine} round {fault_chunk}")),
            "unexpected last panic: {}",
            err.last_panic
        );
    }
}
