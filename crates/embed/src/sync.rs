//! Cross-machine parameter synchronization (§4.2, Improvement-III).
//!
//! Each machine trains on its corpus shard against a private model replica
//! and periodically synchronizes parameters with the other machines. Two
//! strategies are modelled:
//!
//! * [`SyncStrategy::Full`] — every row of both matrices is averaged across
//!   machines, costing `O(|V| · d · m)` traffic per synchronization;
//! * [`SyncStrategy::HotnessBlock`] — the rank-ordered matrices are divided
//!   into blocks of equal corpus frequency ("hotness blocks") and one row is
//!   sampled per block, so hot nodes — which are updated most — are
//!   synchronized most often, costing only `O(ocn_max · d · m)`.

use crate::hogwild::HogwildMatrix;
use crate::vocab::Vocab;
use distger_walks::rng::SplitMix64;

/// Parameter synchronization strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncStrategy {
    /// Average every row of both matrices across all machines.
    Full,
    /// Hotness-block sampling: one row per equal-frequency block.
    HotnessBlock,
}

/// One machine's model replica (`φ_in`, `φ_out`).
pub struct ModelReplica {
    /// Input (context) matrix, rank-indexed.
    pub phi_in: HogwildMatrix,
    /// Output (target/negative) matrix, rank-indexed.
    pub phi_out: HogwildMatrix,
}

impl ModelReplica {
    /// Creates a replica with word2vec initialization; all machines use the
    /// same seed so the replicas start identical.
    pub fn new(rows: usize, dim: usize, seed: u64) -> Self {
        Self {
            phi_in: HogwildMatrix::random_init(rows, dim, seed),
            phi_out: HogwildMatrix::zeros(rows, dim),
        }
    }

    /// Memory footprint in bytes of both matrices.
    pub fn memory_bytes(&self) -> usize {
        self.phi_in.memory_bytes() + self.phi_out.memory_bytes()
    }
}

/// Selects the ranks to synchronize under `strategy`.
pub fn select_sync_ranks(strategy: SyncStrategy, vocab: &Vocab, rng: &mut SplitMix64) -> Vec<u32> {
    match strategy {
        SyncStrategy::Full => (0..vocab.len() as u32).collect(),
        SyncStrategy::HotnessBlock => vocab
            .hotness_blocks()
            .into_iter()
            .filter(|&(start, _)| vocab.freq_at(start) > 0)
            .map(|(start, end)| start + (rng.next_bounded((end - start) as usize) as u32))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocab {
        Vocab::from_frequencies(&[9, 9, 5, 5, 5, 1, 0])
    }

    #[test]
    fn full_sync_selects_every_rank() {
        let v = vocab();
        let mut rng = SplitMix64::new(1);
        let ranks = select_sync_ranks(SyncStrategy::Full, &v, &mut rng);
        assert_eq!(ranks.len(), 7);
    }

    #[test]
    fn hotness_sync_selects_one_rank_per_nonzero_block() {
        let v = vocab();
        let mut rng = SplitMix64::new(1);
        let ranks = select_sync_ranks(SyncStrategy::HotnessBlock, &v, &mut rng);
        // Blocks: freq 9 (ranks 0-1), freq 5 (ranks 2-4), freq 1 (rank 5),
        // freq 0 (rank 6, excluded) → 3 sampled ranks.
        assert_eq!(ranks.len(), 3);
        assert!(ranks[0] < 2);
        assert!((2..5).contains(&ranks[1]));
        assert_eq!(ranks[2], 5);
    }

    #[test]
    fn hotness_traffic_is_much_smaller_than_full() {
        // 1000 nodes whose frequencies take only 10 distinct values.
        let freqs: Vec<u64> = (0..1000u64).map(|i| 1 + (i % 10)).collect();
        let v = Vocab::from_frequencies(&freqs);
        let mut rng = SplitMix64::new(3);
        let full = select_sync_ranks(SyncStrategy::Full, &v, &mut rng).len();
        let hot = select_sync_ranks(SyncStrategy::HotnessBlock, &v, &mut rng).len();
        assert_eq!(full, 1000);
        assert_eq!(hot, 10);
    }
}
