//! Top-k result types and the bounded heap that collects them.
//!
//! Every query engine in this crate — the exact scan and the LSH re-rank —
//! funnels its scored candidates through [`BoundedTopK`], so the ordering
//! contract lives in exactly one place: results are sorted by **descending
//! cosine score**, and equal scores are broken by **ascending node id**. The
//! tie-break makes every backend fully deterministic (two runs, or the exact
//! and LSH backends on the same candidate set, can never disagree on equal
//! scores), which is what lets `recall@k` compare backends without slack for
//! tie shuffling.

use distger_graph::NodeId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One scored query result.
#[derive(Clone, Copy, Debug)]
pub struct Neighbor {
    /// The matched node.
    pub node: NodeId,
    /// Cosine similarity between the query and the node embedding.
    pub score: f32,
}

impl Neighbor {
    /// Total order: a *greater* neighbor is a *better* result — higher score,
    /// or equal score (by `f32::total_cmp`) and smaller node id.
    fn cmp_quality(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialEq for Neighbor {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_quality(other) == Ordering::Equal
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_quality(other)
    }
}

/// The top-k results of one query, best first (descending score, ties by
/// ascending node id).
#[derive(Clone, Debug, PartialEq)]
pub struct TopK {
    neighbors: Vec<Neighbor>,
}

impl TopK {
    /// Builds a result list from neighbors already in best-first order
    /// (descending score, ties by ascending node id) — the shard merge and
    /// the reply decoder produce rows in exactly that order, so re-sorting
    /// here would only obscure the invariant they are proven to keep.
    pub(crate) fn from_sorted(neighbors: Vec<Neighbor>) -> Self {
        debug_assert!(
            neighbors.windows(2).all(|w| w[0] >= w[1]),
            "neighbors must arrive best-first"
        );
        Self { neighbors }
    }

    /// The results, best first.
    pub fn neighbors(&self) -> &[Neighbor] {
        &self.neighbors
    }

    /// Number of results (may be below k when the index holds fewer nodes or
    /// an approximate backend found fewer candidates).
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether no result was found.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// The matched node ids, best first.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors.iter().map(|n| n.node)
    }
}

/// A bounded min-heap keeping the best `k` neighbors seen so far.
///
/// `push` is `O(log k)` and the heap reserves `min(k, population) + 1` slots
/// up front, so a brute-force scan over millions of nodes stays
/// `O(n log k)` with constant memory, and a `k` far above the population (a
/// peer-supplied one, say) reserves no more than the population.
#[derive(Clone, Debug)]
pub struct BoundedTopK {
    k: usize,
    /// Min-heap (via `Reverse`): the root is the current *worst* kept result.
    heap: BinaryHeap<Reverse<Neighbor>>,
}

impl BoundedTopK {
    /// An empty collector for the best `k` of at most `population`
    /// candidates.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn new(k: usize, population: usize) -> Self {
        assert!(k > 0, "top-k needs k >= 1");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.min(population) + 1),
        }
    }

    /// Offers one candidate; kept only while it beats the current worst.
    #[inline]
    pub fn push(&mut self, candidate: Neighbor) {
        if self.heap.len() < self.k {
            self.heap.push(Reverse(candidate));
        } else if let Some(Reverse(worst)) = self.heap.peek() {
            if candidate > *worst {
                self.heap.pop();
                self.heap.push(Reverse(candidate));
            }
        }
    }

    /// Finalizes into a best-first [`TopK`].
    pub fn into_topk(self) -> TopK {
        let mut neighbors: Vec<Neighbor> = self.heap.into_iter().map(|Reverse(n)| n).collect();
        neighbors.sort_unstable_by(|a, b| b.cmp(a));
        TopK { neighbors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(node: NodeId, score: f32) -> Neighbor {
        Neighbor { node, score }
    }

    #[test]
    fn keeps_the_best_k_sorted() {
        let mut heap = BoundedTopK::new(3, 5);
        for (node, score) in [(0, 0.1), (1, 0.9), (2, 0.5), (3, 0.7), (4, 0.2)] {
            heap.push(n(node, score));
        }
        let top = heap.into_topk();
        assert_eq!(top.nodes().collect::<Vec<_>>(), vec![1, 3, 2]);
        assert_eq!(top.len(), 3);
        assert!(!top.is_empty());
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut heap = BoundedTopK::new(10, 1);
        heap.push(n(7, 0.3));
        let top = heap.into_topk();
        assert_eq!(top.len(), 1);
        assert_eq!(top.neighbors()[0].node, 7);
    }

    #[test]
    fn equal_scores_break_ties_by_ascending_node_id() {
        let mut heap = BoundedTopK::new(2, 4);
        for node in [9, 3, 6, 1] {
            heap.push(n(node, 0.5));
        }
        let top = heap.into_topk();
        // All scores equal: the *smallest* ids win, in ascending order.
        assert_eq!(top.nodes().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn ordering_is_total_even_for_nan_scores() {
        // total_cmp puts NaN above +inf; the point is no panic and a stable
        // order, not a meaningful rank for NaN.
        let mut heap = BoundedTopK::new(2, 3);
        heap.push(n(0, f32::NAN));
        heap.push(n(1, 1.0));
        heap.push(n(2, 0.5));
        assert_eq!(heap.into_topk().len(), 2);
    }

    #[test]
    fn a_k_above_the_population_reserves_only_the_population() {
        // `k = u32::MAX` is what an all-ones LOAD field decodes to; the heap
        // must size itself by the candidates, not by the request.
        let mut heap = BoundedTopK::new(u32::MAX as usize, 3);
        assert!(heap.heap.capacity() < 16, "{}", heap.heap.capacity());
        for node in 0..3 {
            heap.push(n(node, node as f32));
        }
        assert_eq!(heap.into_topk().nodes().collect::<Vec<_>>(), vec![2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_rejected() {
        BoundedTopK::new(0, 1);
    }
}
