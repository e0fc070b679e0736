//! Frequency-ordered vocabulary over the walk corpus.
//!
//! DSGL's Improvement-I (§4.2) constructs the global matrices `φ_in` and
//! `φ_out` in descending order of node frequency in the corpus, so that the
//! rows of hot nodes stay in cache. The [`Vocab`] owns that ordering: it maps
//! original node ids to frequency ranks and back, and exposes the per-rank
//! frequencies that the hotness-block synchronization (Improvement-III) is
//! built on.

use distger_graph::NodeId;
use distger_walks::Corpus;

/// Frequency-ordered vocabulary: rank 0 is the most frequent node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Vocab {
    node_to_rank: Vec<u32>,
    rank_to_node: Vec<NodeId>,
    freq_by_rank: Vec<u64>,
}

impl Vocab {
    /// Builds the vocabulary from a corpus. Nodes that never appear in the
    /// corpus are placed after all appearing nodes (frequency 0), so every
    /// node of the graph has a row in the global matrices.
    pub fn from_corpus(corpus: &Corpus) -> Self {
        Self::from_frequencies(corpus.frequencies())
    }

    /// Builds the vocabulary from explicit per-node frequencies.
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        let n = freqs.len();
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(freqs[v as usize]), v));
        let mut node_to_rank = vec![0u32; n];
        let mut freq_by_rank = vec![0u64; n];
        for (rank, &node) in order.iter().enumerate() {
            node_to_rank[node as usize] = rank as u32;
            freq_by_rank[rank] = freqs[node as usize];
        }
        Self {
            node_to_rank,
            rank_to_node: order,
            freq_by_rank,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.rank_to_node.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.rank_to_node.is_empty()
    }

    /// Frequency rank of a node (0 = hottest).
    #[inline]
    pub fn rank_of(&self, node: NodeId) -> u32 {
        self.node_to_rank[node as usize]
    }

    /// Node occupying a given rank.
    #[inline]
    pub fn node_at(&self, rank: u32) -> NodeId {
        self.rank_to_node[rank as usize]
    }

    /// Corpus frequency of the node at `rank`.
    #[inline]
    pub fn freq_at(&self, rank: u32) -> u64 {
        self.freq_by_rank[rank as usize]
    }

    /// Frequencies in rank order (non-increasing).
    pub fn frequencies(&self) -> &[u64] {
        &self.freq_by_rank
    }

    /// The largest occurrence count of any node (`ocn_max` in §4.2-III).
    pub fn max_frequency(&self) -> u64 {
        self.freq_by_rank.first().copied().unwrap_or(0)
    }

    /// Hotness blocks: maximal runs of ranks sharing the same frequency,
    /// returned as `(start_rank, end_rank_exclusive)` in rank order. Ranks
    /// with frequency 0 form the final block (they are never sampled for
    /// synchronization by callers, but the block is reported for
    /// completeness).
    pub fn hotness_blocks(&self) -> Vec<(u32, u32)> {
        let mut blocks = Vec::new();
        let n = self.freq_by_rank.len();
        let mut start = 0usize;
        while start < n {
            let f = self.freq_by_rank[start];
            let mut end = start + 1;
            while end < n && self.freq_by_rank[end] == f {
                end += 1;
            }
            blocks.push((start as u32, end as u32));
            start = end;
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocab {
        // node: 0 1 2 3 4 ; freq: 3 7 7 0 1
        Vocab::from_frequencies(&[3, 7, 7, 0, 1])
    }

    #[test]
    fn ranks_are_descending_by_frequency() {
        let v = vocab();
        assert_eq!(v.len(), 5);
        assert_eq!(v.node_at(0), 1); // ties broken by node id
        assert_eq!(v.node_at(1), 2);
        assert_eq!(v.node_at(2), 0);
        assert_eq!(v.node_at(3), 4);
        assert_eq!(v.node_at(4), 3);
        assert_eq!(v.rank_of(3), 4);
        assert_eq!(v.freq_at(0), 7);
        assert_eq!(v.max_frequency(), 7);
    }

    #[test]
    fn rank_mapping_is_a_bijection() {
        let v = vocab();
        for node in 0..5u32 {
            assert_eq!(v.node_at(v.rank_of(node)), node);
        }
        for rank in 0..5u32 {
            assert_eq!(v.rank_of(v.node_at(rank)), rank);
        }
    }

    #[test]
    fn hotness_blocks_group_equal_frequencies() {
        let v = vocab();
        // freq by rank: 7 7 3 1 0 → blocks [0,2) [2,3) [3,4) [4,5)
        assert_eq!(v.hotness_blocks(), vec![(0, 2), (2, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn from_corpus_counts_occurrences() {
        let corpus = Corpus::from_walks(vec![vec![0, 1, 1], vec![2, 1]], 4);
        let v = Vocab::from_corpus(&corpus);
        assert_eq!(v.node_at(0), 1);
        assert_eq!(v.freq_at(0), 3);
        assert_eq!(v.freq_at(3), 0); // node 3 never appears
    }

    #[test]
    fn empty_vocab() {
        let v = Vocab::from_frequencies(&[]);
        assert!(v.is_empty());
        assert_eq!(v.max_frequency(), 0);
        assert!(v.hotness_blocks().is_empty());
    }

    #[test]
    fn frequencies_are_non_increasing() {
        let v = Vocab::from_frequencies(&[5, 1, 9, 9, 2, 0, 7]);
        assert!(v.frequencies().windows(2).all(|w| w[0] >= w[1]));
    }
}
