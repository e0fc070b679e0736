//! The sampled walk corpus.
//!
//! A corpus is the set of random walks produced by the sampler; it plays the
//! role of the "sentences" fed to the Skip-Gram learner (§2.1). The learner
//! also needs per-node occurrence counts (for the frequency-ordered global
//! matrices and the hotness blocks of DSGL) and the occurrence probability
//! distribution `q(v)` used by the walks-per-node convergence test (Eq. 6).
//!
//! The occurrence counts are maintained **incrementally**: every
//! [`push_walk`](Corpus::push_walk) / [`extend`](Corpus::extend) updates the
//! per-node counters as tokens arrive, so the per-round relative-entropy
//! convergence check reads a cached `O(|V|)` array instead of rescanning the
//! whole `O(C)` corpus (`C` = total tokens, which grows with every round).

use distger_graph::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A collection of random walks over a graph with `num_nodes` nodes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Corpus {
    walks: Vec<Vec<NodeId>>,
    num_nodes: usize,
    /// Per-node occurrence counts `ocn(v)`, maintained incrementally.
    freq: Vec<u64>,
    /// Total token count `C = Σ ocn`, maintained incrementally.
    total_tokens: u64,
}

impl Corpus {
    /// Creates an empty corpus for a graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            walks: Vec::new(),
            num_nodes,
            freq: vec![0; num_nodes],
            total_tokens: 0,
        }
    }

    /// Creates a corpus directly from walks. Empty walks are discarded, the
    /// same as [`push_walk`](Corpus::push_walk), so a corpus never holds
    /// them (and [`split`](Corpus::split) stays walk-count-preserving).
    ///
    /// # Panics
    /// Panics if any walk mentions a node id `>= num_nodes`.
    pub fn from_walks(walks: Vec<Vec<NodeId>>, num_nodes: usize) -> Self {
        assert!(
            walks
                .iter()
                .flat_map(|w| w.iter())
                .all(|&v| (v as usize) < num_nodes),
            "walk mentions a node outside the graph"
        );
        let mut corpus = Corpus::new(num_nodes);
        for walk in walks {
            corpus.push_walk(walk);
        }
        corpus
    }

    /// Appends a walk. Empty walks are ignored.
    pub fn push_walk(&mut self, walk: Vec<NodeId>) {
        if !walk.is_empty() {
            debug_assert!(walk.iter().all(|&v| (v as usize) < self.num_nodes));
            for &v in &walk {
                self.freq[v as usize] += 1;
            }
            self.total_tokens += walk.len() as u64;
            self.walks.push(walk);
        }
    }

    /// Appends all walks from another corpus over the same graph.
    pub fn extend(&mut self, other: Corpus) {
        assert_eq!(self.num_nodes, other.num_nodes);
        for (mine, theirs) in self.freq.iter_mut().zip(&other.freq) {
            *mine += theirs;
        }
        self.total_tokens += other.total_tokens;
        self.walks.extend(other.walks);
    }

    /// The walks.
    pub fn walks(&self) -> &[Vec<NodeId>] {
        &self.walks
    }

    /// Number of walks.
    pub fn num_walks(&self) -> usize {
        self.walks.len()
    }

    /// Number of nodes in the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total number of tokens (node occurrences) over all walks — the corpus
    /// size `C` of the complexity analyses. `O(1)` (cached).
    pub fn total_tokens(&self) -> usize {
        self.total_tokens as usize
    }

    /// Mean walk length (0 for an empty corpus).
    pub fn avg_walk_length(&self) -> f64 {
        if self.walks.is_empty() {
            0.0
        } else {
            self.total_tokens as f64 / self.walks.len() as f64
        }
    }

    /// Per-node occurrence counts `ocn(v)`, borrowed from the incrementally
    /// maintained counters (`O(1)`).
    pub fn frequencies(&self) -> &[u64] {
        &self.freq
    }

    /// Per-node occurrence counts `ocn(v)` as an owned vector.
    pub fn node_frequencies(&self) -> Vec<u64> {
        self.freq.clone()
    }

    /// Occurrence probability distribution `q(v) = ocn(v) / Σ ocn` (Eq. 6).
    /// `O(|V|)` from the cached counters — independent of the corpus size.
    pub fn occurrence_distribution(&self) -> Vec<f64> {
        if self.total_tokens == 0 {
            return vec![0.0; self.num_nodes];
        }
        let total = self.total_tokens as f64;
        self.freq.iter().map(|&f| f as f64 / total).collect()
    }

    /// Estimated resident memory of the corpus in bytes (walk storage plus
    /// the incremental occurrence counters).
    pub fn memory_bytes(&self) -> usize {
        self.walks
            .iter()
            .map(|w| w.len() * std::mem::size_of::<NodeId>() + std::mem::size_of::<Vec<NodeId>>())
            .sum::<usize>()
            + self.freq.len() * std::mem::size_of::<u64>()
            + std::mem::size_of::<Self>()
    }

    /// Splits the corpus into `parts` shards of (nearly) equal token counts,
    /// used to distribute training across machines (§4.2-III).
    ///
    /// The shards are **counters-free views** ([`CorpusShard`]): distributed
    /// training only reads the shard's walks, so the shards do not carry the
    /// `|V|`-length occurrence-counter vector a full [`Corpus`] maintains —
    /// saving `parts × |V| × 8` bytes per split (the counters used to be
    /// cloned into every shard). A shard that does need counters can
    /// materialize them lazily with [`CorpusShard::into_corpus`].
    ///
    /// Assignment is greedy least-loaded through a [`BinaryHeap`] keyed on
    /// `(load, part)` — `O(log parts)` per walk instead of the former
    /// `O(parts)` scan, which matters once corpora of hundreds of millions
    /// of walks are split over many machines. The `(load, part)` key breaks
    /// load ties by the smallest part index, exactly the order the linear
    /// scan's `min_by_key` picked, so shard contents are **bit-identical**
    /// to the old splitter's (property-tested against the reference scan).
    pub fn split(&self, parts: usize) -> Vec<CorpusShard> {
        let mut shards: Vec<CorpusShard> = (0..parts)
            .map(|_| CorpusShard {
                walks: Vec::new(),
                num_nodes: self.num_nodes,
                total_tokens: 0,
            })
            .collect();
        for (walk, target) in self.walks.iter().zip(self.split_assignment(parts)) {
            shards[target].total_tokens += walk.len() as u64;
            shards[target].walks.push(walk.clone());
        }
        shards
    }

    /// The part [`split`](Corpus::split) puts each walk in, in walk order —
    /// for a consumer with no use for a second copy of every walk (the
    /// multi-process trainer encodes its shards straight onto the wire).
    pub fn split_assignment(&self, parts: usize) -> Vec<usize> {
        assert!(parts > 0);
        // Min-heap (via `Reverse`) of (tokens assigned so far, part index).
        let mut loads: BinaryHeap<Reverse<(usize, usize)>> =
            (0..parts).map(|part| Reverse((0, part))).collect();
        self.walks
            .iter()
            .map(|walk| {
                let Reverse((load, target)) = loads.pop().expect("parts > 0");
                loads.push(Reverse((load + walk.len(), target)));
                target
            })
            .collect()
    }
}

/// A counters-free view of one training shard produced by [`Corpus::split`].
///
/// Distributed training (§4.2-III) hands every machine a shard and only ever
/// iterates its walks; the per-node occurrence counters a full [`Corpus`]
/// maintains incrementally would cost `|V| × 8` bytes *per shard* without a
/// single read. The shard therefore stores walks and a cached token total
/// only; the counters are **lazily materialized** — upgrade with
/// [`into_corpus`](CorpusShard::into_corpus) if a consumer really needs them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CorpusShard {
    walks: Vec<Vec<NodeId>>,
    num_nodes: usize,
    total_tokens: u64,
}

impl CorpusShard {
    /// The shard's walks.
    pub fn walks(&self) -> &[Vec<NodeId>] {
        &self.walks
    }

    /// Number of walks in the shard.
    pub fn num_walks(&self) -> usize {
        self.walks.len()
    }

    /// Number of nodes in the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total tokens in the shard (`O(1)`, cached).
    pub fn total_tokens(&self) -> usize {
        self.total_tokens as usize
    }

    /// Estimated resident memory of the shard in bytes — walk storage only,
    /// with **no** `|V|`-length counter term (compare
    /// [`Corpus::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.walks
            .iter()
            .map(|w| w.len() * std::mem::size_of::<NodeId>() + std::mem::size_of::<Vec<NodeId>>())
            .sum::<usize>()
            + std::mem::size_of::<Self>()
    }

    /// Materializes the occurrence counters, upgrading the view into a full
    /// [`Corpus`] (one `O(tokens)` pass — this is the lazy path for the rare
    /// consumer that needs per-node frequencies on a shard).
    pub fn into_corpus(self) -> Corpus {
        Corpus::from_walks(self.walks, self.num_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_corpus() -> Corpus {
        Corpus::from_walks(vec![vec![0, 1, 2, 1], vec![2, 3], vec![3, 3, 3]], 4)
    }

    #[test]
    fn counts_and_lengths() {
        let c = sample_corpus();
        assert_eq!(c.num_walks(), 3);
        assert_eq!(c.total_tokens(), 9);
        assert!((c.avg_walk_length() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn frequencies_and_distribution() {
        let c = sample_corpus();
        assert_eq!(c.node_frequencies(), vec![1, 2, 2, 4]);
        let q = c.occurrence_distribution();
        assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((q[3] - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn incremental_counters_match_rescan() {
        let mut c = Corpus::new(5);
        c.push_walk(vec![0, 1, 1]);
        c.push_walk(vec![4]);
        let mut other = Corpus::new(5);
        other.push_walk(vec![1, 4, 4, 2]);
        c.extend(other);
        let mut expected = vec![0u64; 5];
        for walk in c.walks() {
            for &v in walk {
                expected[v as usize] += 1;
            }
        }
        assert_eq!(c.frequencies(), expected.as_slice());
        assert_eq!(
            c.total_tokens(),
            c.walks().iter().map(|w| w.len()).sum::<usize>()
        );
    }

    #[test]
    fn empty_corpus_edge_cases() {
        let c = Corpus::new(3);
        assert_eq!(c.avg_walk_length(), 0.0);
        assert_eq!(c.occurrence_distribution(), vec![0.0; 3]);
        assert_eq!(c.total_tokens(), 0);
    }

    #[test]
    fn push_ignores_empty_walks() {
        let mut c = Corpus::new(2);
        c.push_walk(vec![]);
        c.push_walk(vec![0, 1]);
        assert_eq!(c.num_walks(), 1);
    }

    #[test]
    fn extend_merges() {
        let mut a = sample_corpus();
        let b = Corpus::from_walks(vec![vec![0, 0]], 4);
        a.extend(b);
        assert_eq!(a.num_walks(), 4);
        assert_eq!(a.node_frequencies()[0], 3);
    }

    #[test]
    #[should_panic(expected = "outside the graph")]
    fn from_walks_validates_node_ids() {
        Corpus::from_walks(vec![vec![5]], 3);
    }

    #[test]
    fn split_balances_tokens_and_preserves_walks() {
        let c = Corpus::from_walks(vec![vec![0; 10], vec![1; 10], vec![2; 2], vec![3; 2]], 4);
        let shards = c.split(2);
        assert_eq!(shards.len(), 2);
        let t0 = shards[0].total_tokens();
        let t1 = shards[1].total_tokens();
        assert_eq!(t0 + t1, 24);
        assert!((t0 as i64 - t1 as i64).abs() <= 2);
        assert_eq!(shards.iter().map(|s| s.num_walks()).sum::<usize>(), 4);
        // Materialized shard counters must add back up to the original.
        let materialized: Vec<Corpus> = shards.into_iter().map(|s| s.into_corpus()).collect();
        let merged: Vec<u64> = (0..4)
            .map(|v| materialized.iter().map(|s| s.frequencies()[v]).sum())
            .collect();
        assert_eq!(merged, c.node_frequencies());
    }

    #[test]
    fn split_shards_are_counters_free() {
        // A big vertex set with a tiny corpus: exactly the regime where the
        // old per-shard counter clone dominated shard memory.
        let n = 10_000usize;
        let parts = 4usize;
        let mut c = Corpus::new(n);
        for w in 0..20u32 {
            c.push_walk(vec![w, w + 1, w + 2]);
        }
        let shards = c.split(parts);
        let shard_bytes: usize = shards.iter().map(|s| s.memory_bytes()).sum();
        let materialized_bytes: usize = shards
            .iter()
            .map(|s| s.clone().into_corpus().memory_bytes())
            .sum();
        // Dropping the counters saves the full `parts × |V| × 8` bytes the
        // old Corpus-typed shards cloned into every part.
        assert!(
            materialized_bytes - shard_bytes >= parts * n * std::mem::size_of::<u64>(),
            "expected ≥ {} bytes saved, got {}",
            parts * n * std::mem::size_of::<u64>(),
            materialized_bytes - shard_bytes
        );
        // The view itself is walk storage plus a constant — no |V| term.
        for shard in &shards {
            assert!(shard.memory_bytes() < n);
        }
    }
}
