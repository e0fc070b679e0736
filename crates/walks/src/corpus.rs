//! The sampled walk corpus.
//!
//! A corpus is the set of random walks produced by the sampler; it plays the
//! role of the "sentences" fed to the Skip-Gram learner (§2.1). Its walks sit
//! in a [`Walks`] arena, the layout of every training shard too, and a
//! [`WalksView`] borrows a range of them without copying. The learner also
//! needs per-node occurrence counts (for the frequency-ordered global
//! matrices and the hotness blocks of DSGL) and the occurrence probability
//! distribution `q(v)` used by the walks-per-node convergence test (Eq. 6).
//!
//! The occurrence counts are maintained **incrementally**: every
//! [`push_walk`](Corpus::push_walk) updates the per-node counters as tokens
//! arrive, so the per-round relative-entropy convergence check reads a cached
//! `O(|V|)` array instead of rescanning the whole `O(C)` corpus (`C` = total
//! tokens, which grows with every round).

use distger_graph::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem::size_of;
use std::ops::Range;

/// Walks stored as one token arena plus `walks + 1` offsets into it: walk `i`
/// is `tokens[offsets[i]..offsets[i + 1]]`. Never holds an empty walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Walks {
    offsets: Vec<usize>,
    tokens: Vec<NodeId>,
}

impl Default for Walks {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl Walks {
    /// No walks yet, with room for `walks` walks of `tokens` tokens in all.
    pub fn with_capacity(walks: usize, tokens: usize) -> Self {
        let mut offsets = Vec::with_capacity(walks + 1);
        offsets.push(0);
        let tokens = Vec::with_capacity(tokens);
        Self { offsets, tokens }
    }

    /// The walks of `lengths`, whose tokens are `tokens` back to back; `None`
    /// unless every length is non-zero and they sum to `tokens.len()`.
    pub fn from_lengths(lengths: &[u32], tokens: Vec<NodeId>) -> Option<Self> {
        let mut offsets = Vec::with_capacity(lengths.len() + 1);
        offsets.push(0);
        for &len in lengths {
            let end = offsets[offsets.len() - 1] + len as usize;
            offsets.push(end);
            if len == 0 || end > tokens.len() {
                return None;
            }
        }
        (offsets[lengths.len()] == tokens.len()).then_some(Self { offsets, tokens })
    }

    /// Appends a walk and returns its tokens. An empty walk is dropped.
    pub fn push(&mut self, walk: impl IntoIterator<Item = NodeId>) -> &[NodeId] {
        let start = self.tokens.len();
        self.tokens.extend(walk);
        if self.tokens.len() > start {
            self.offsets.push(self.tokens.len());
        }
        &self.tokens[start..]
    }

    /// Every walk, borrowed.
    pub fn view(&self) -> WalksView<'_> {
        WalksView {
            offsets: &self.offsets,
            tokens: &self.tokens,
        }
    }

    /// Resident bytes: `8·(walks + 1)` of offsets plus `4·tokens`.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * size_of::<usize>() + self.tokens.len() * size_of::<NodeId>()
    }
}

/// A borrowed range of the walks of a [`Walks`], sliced by walk index.
#[derive(Clone, Copy, Debug)]
pub struct WalksView<'a> {
    /// `len() + 1` ascending offsets into `tokens`.
    offsets: &'a [usize],
    tokens: &'a [NodeId],
}

impl<'a> WalksView<'a> {
    /// Number of walks.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the view holds no walk.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th walk.
    pub fn walk(&self, i: usize) -> &'a [NodeId] {
        &self.tokens[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The walks, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [NodeId]> + 'a {
        let tokens = self.tokens;
        self.offsets.windows(2).map(move |w| &tokens[w[0]..w[1]])
    }

    /// The tokens of every walk of the view, back to back.
    pub fn tokens(&self) -> &'a [NodeId] {
        &self.tokens[self.offsets[0]..self.offsets[self.len()]]
    }

    /// The walks with indices in `walks`.
    pub fn slice(&self, walks: Range<usize>) -> WalksView<'a> {
        let offsets = &self.offsets[walks.start..=walks.end];
        WalksView { offsets, ..*self }
    }

    /// Consecutive views of `size` walks each (the last may be shorter).
    pub fn chunks(&self, size: usize) -> impl Iterator<Item = WalksView<'a>> + 'a {
        let view = *self;
        (0..view.len())
            .step_by(size)
            .map(move |start| view.slice(start..(start + size).min(view.len())))
    }
}

/// A collection of random walks over a graph with `num_nodes` nodes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Corpus {
    walks: Walks,
    num_nodes: usize,
    /// Per-node occurrence counts `ocn(v)`, maintained incrementally.
    freq: Vec<u64>,
}

impl Corpus {
    /// Creates an empty corpus for a graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            walks: Walks::default(),
            num_nodes,
            freq: vec![0; num_nodes],
        }
    }

    /// Creates a corpus from walks, each through [`push_walk`](Corpus::push_walk).
    ///
    /// # Panics
    /// Panics if any walk mentions a node id `>= num_nodes`.
    pub fn from_walks(walks: Vec<Vec<NodeId>>, num_nodes: usize) -> Self {
        let mut corpus = Corpus::new(num_nodes);
        walks.into_iter().for_each(|walk| corpus.push_walk(walk));
        corpus
    }

    /// Appends a walk to the arena and counts its tokens. An empty walk is
    /// ignored.
    ///
    /// # Panics
    /// Panics if the walk mentions a node id `>= num_nodes`.
    pub fn push_walk(&mut self, walk: impl IntoIterator<Item = NodeId>) {
        for &v in self.walks.push(walk) {
            let count = self.freq.get_mut(v as usize);
            *count.expect("walk mentions a node outside the graph") += 1;
        }
    }

    /// Every walk, borrowed from the arena.
    pub fn view(&self) -> WalksView<'_> {
        self.walks.view()
    }

    /// An owned copy of every walk, one `Vec` each: `O(tokens)` time and
    /// one allocation per walk. [`view`](Corpus::view) reads the same walks
    /// without a copy.
    pub fn walks(&self) -> Vec<Vec<NodeId>> {
        self.view().iter().map(<[NodeId]>::to_vec).collect()
    }

    /// Number of walks.
    pub fn num_walks(&self) -> usize {
        self.view().len()
    }

    /// Number of nodes in the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total number of tokens (node occurrences) over all walks — the corpus
    /// size `C` of the complexity analyses. `O(1)`.
    pub fn total_tokens(&self) -> usize {
        self.walks.tokens.len()
    }

    /// Mean walk length (0 for an empty corpus, which has no tokens).
    pub fn avg_walk_length(&self) -> f64 {
        self.total_tokens() as f64 / self.num_walks().max(1) as f64
    }

    /// Per-node occurrence counts `ocn(v)`, borrowed from the incrementally
    /// maintained counters (`O(1)`).
    pub fn frequencies(&self) -> &[u64] {
        &self.freq
    }

    /// Occurrence probability distribution `q(v) = ocn(v) / Σ ocn` (Eq. 6),
    /// all zeros for an empty corpus. `O(|V|)` from the cached counters —
    /// independent of the corpus size.
    pub fn occurrence_distribution(&self) -> Vec<f64> {
        let total = self.total_tokens().max(1) as f64;
        self.freq.iter().map(|&f| f as f64 / total).collect()
    }

    /// Resident memory of the corpus in bytes: the arena,
    /// `8·(walks + 1) + 4·tokens`, plus `8·|V|` of occurrence counters.
    pub fn memory_bytes(&self) -> usize {
        self.walks.memory_bytes() + self.freq.len() * size_of::<u64>()
    }

    /// Deals the walks onto `parts` training machines (§4.2-III): the part
    /// each walk goes to, in walk order. Greedy least-loaded by tokens
    /// through a [`BinaryHeap`] keyed on `(load, part)` — `O(log parts)` per
    /// walk — whose key breaks load ties by the smallest part index, exactly
    /// as a linear `min_by_key` scan would (property-tested against one).
    pub fn split_assignment(&self, parts: usize) -> Vec<usize> {
        assert!(parts > 0);
        // Min-heap (via `Reverse`) of (tokens assigned so far, part index).
        let mut loads: BinaryHeap<Reverse<(usize, usize)>> =
            (0..parts).map(|part| Reverse((0, part))).collect();
        self.view()
            .iter()
            .map(|walk| {
                let Reverse((load, target)) = loads.pop().expect("parts > 0");
                loads.push(Reverse((load + walk.len(), target)));
                target
            })
            .collect()
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
        assert_eq!(c.frequencies(), [1, 2, 2, 4]);
        let q = c.occurrence_distribution();
        assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((q[3] - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn incremental_counters_match_rescan() {
        let mut c = Corpus::new(5);
        c.push_walk(vec![0, 1, 1]);
        c.push_walk(vec![4]);
        c.push_walk([1, 4, 4, 2].iter().copied());
        let mut expected = vec![0u64; 5];
        for &v in c.view().tokens() {
            expected[v as usize] += 1;
        }
        assert_eq!(c.frequencies(), expected.as_slice());
        assert_eq!(
            c.total_tokens(),
            c.view().iter().map(|w| w.len()).sum::<usize>()
        );
        assert_eq!(c.walks(), [vec![0, 1, 1], vec![4], vec![1, 4, 4, 2]]);
    }

    #[test]
    fn empty_corpus_edge_cases() {
        let c = Corpus::new(3);
        assert_eq!(c.avg_walk_length(), 0.0);
        assert_eq!(c.occurrence_distribution(), vec![0.0; 3]);
        assert_eq!(c.total_tokens(), 0);
        assert!(c.view().is_empty());
        assert_eq!(c, Corpus::from_walks(vec![vec![]], 3));
    }

    #[test]
    fn push_ignores_empty_walks() {
        let mut c = Corpus::new(2);
        c.push_walk(vec![]);
        c.push_walk(vec![0, 1]);
        assert_eq!(c.num_walks(), 1);
    }

    #[test]
    #[should_panic(expected = "outside the graph")]
    fn from_walks_validates_node_ids() {
        Corpus::from_walks(vec![vec![5]], 3);
    }

    /// `8·(walks + 1) + 4·tokens + 8·|V|`, with nothing per walk beyond its
    /// offset.
    #[test]
    fn memory_bytes_is_offsets_tokens_and_counters() {
        let c = sample_corpus();
        assert_eq!(c.memory_bytes(), 8 * (3 + 1) + 4 * 9 + 8 * 4);
        assert_eq!(Corpus::new(10).memory_bytes(), 8 + 8 * 10);
    }

    #[test]
    fn split_assignment_balances_tokens_and_covers_every_walk() {
        let c = Corpus::from_walks(vec![vec![0; 10], vec![1; 10], vec![2; 2], vec![3; 2]], 4);
        let assignment = c.split_assignment(2);
        assert_eq!(assignment, [0, 1, 0, 1]);
        let mut loads = [0usize; 2];
        for (walk, &part) in c.view().iter().zip(&assignment) {
            loads[part] += walk.len();
        }
        assert_eq!(loads, [12, 12]);
        // Ties go to the smallest part, so one part takes everything first.
        assert_eq!(c.split_assignment(1), [0; 4]);
        assert_eq!(Corpus::new(4).split_assignment(3), Vec::<usize>::new());
    }

    #[test]
    fn views_slice_and_chunk_by_walk_index() {
        let corpus = Corpus::from_walks(vec![vec![1, 2], vec![], vec![3], vec![4, 5, 6]], 7);
        let view = corpus.view();
        assert_eq!(view.len(), 3, "the empty walk is dropped");
        assert_eq!(view.walk(2), [4, 5, 6]);
        let tail = view.slice(1..3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.walk(0), [3]);
        assert_eq!(tail.tokens(), [3, 4, 5, 6]);
        assert!(view.slice(2..2).is_empty());
        assert!(view.slice(2..2).tokens().is_empty());
        let chunks: Vec<Vec<&[NodeId]>> = view.chunks(2).map(|c| c.iter().collect()).collect();
        assert_eq!(chunks, [vec![&[1, 2][..], &[3]], vec![&[4, 5, 6][..]]]);
        assert_eq!(corpus.walks.memory_bytes(), 8 * 4 + 4 * 6);
    }

    #[test]
    fn from_lengths_accepts_exact_tilings_only() {
        let walks = Walks::from_lengths(&[2, 1], vec![7, 8, 9]).unwrap();
        assert_eq!(walks.view().walk(0), [7, 8]);
        assert_eq!(walks.view().tokens(), [7, 8, 9]);
        assert_eq!(Walks::from_lengths(&[], Vec::new()), Some(Walks::default()));
        assert!(
            Walks::from_lengths(&[2, 2], vec![7, 8, 9]).is_none(),
            "overrun"
        );
        assert!(
            Walks::from_lengths(&[1, 1], vec![7, 8, 9]).is_none(),
            "short"
        );
        assert!(
            Walks::from_lengths(&[0, 3], vec![7, 8, 9]).is_none(),
            "empty"
        );
    }
}
