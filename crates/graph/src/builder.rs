//! Incremental edge-list graph construction.

use crate::csr::CsrGraph;
use crate::{EdgeWeight, NodeId};

/// Builds a [`CsrGraph`] from a stream of edges.
///
/// Duplicate edges and self-loops are dropped (the paper's random-walk models
/// assume simple graphs). For undirected graphs each added edge is stored in
/// both directions. Of duplicate weighted edges the first added keeps its
/// weight, in both directions of an undirected graph.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    edges: Vec<(NodeId, NodeId, EdgeWeight)>,
    directed: bool,
    weighted: bool,
    max_node: Option<NodeId>,
}

impl GraphBuilder {
    /// Creates a builder for an undirected, unweighted graph.
    pub fn new_undirected() -> Self {
        Self::new(false)
    }

    /// Creates a builder for a directed, unweighted graph.
    pub fn new_directed() -> Self {
        Self::new(true)
    }

    fn new(directed: bool) -> Self {
        Self {
            edges: Vec::new(),
            directed,
            weighted: false,
            max_node: None,
        }
    }

    /// Ensures the built graph has at least `n` nodes even if some of them end
    /// up isolated.
    pub fn reserve_nodes(&mut self, n: usize) -> &mut Self {
        if n > 0 {
            let max = (n - 1) as NodeId;
            self.max_node = Some(self.max_node.map_or(max, |m| m.max(max)));
        }
        self
    }

    /// Adds an unweighted edge.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.add_weighted_edge(u, v, 1.0)
    }

    /// Adds a weighted edge. Mixing weighted and unweighted additions marks
    /// the whole graph as weighted (missing weights default to `1.0`).
    ///
    /// # Panics
    /// Panics on a negative, NaN or infinite weight. Random-walk transition
    /// probabilities are proportional to edge weights (`P(u→v) ∝ w(u,v)`), so
    /// such weights have no probabilistic meaning; rejecting them here keeps
    /// every downstream sampler free of silent uniform fallbacks. A weight of exactly `0.0` is allowed
    /// and means "this edge is never taken" (unless *all* of a node's weights
    /// are zero, in which case samplers fall back to a uniform draw).
    pub fn add_weighted_edge(&mut self, u: NodeId, v: NodeId, w: EdgeWeight) -> &mut Self {
        assert!(
            w.is_finite() && w >= 0.0,
            "edge ({u}, {v}) has weight {w}: edge weights must be finite and \
             non-negative (transition probabilities are proportional to weights)"
        );
        if u == v {
            return self; // drop self-loops
        }
        if w != 1.0 {
            self.weighted = true;
        }
        self.edges.push((u, v, w));
        let hi = u.max(v);
        self.max_node = Some(self.max_node.map_or(hi, |m| m.max(hi)));
        self
    }

    /// Adds every edge from an iterator of `(u, v)` pairs.
    pub fn extend_edges(&mut self, iter: impl IntoIterator<Item = (NodeId, NodeId)>) -> &mut Self {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
        self
    }

    /// Number of edges added so far (before deduplication).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edge has been added yet.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Marks the graph as weighted even if every weight is `1.0`.
    pub fn force_weighted(&mut self) -> &mut Self {
        self.weighted = true;
        self
    }

    /// Consumes the builder and produces the CSR graph.
    pub fn build(&self) -> CsrGraph {
        let n = self.max_node.map_or(0, |m| m as usize + 1);
        let (offsets, targets, weights) = if self.weighted {
            let (offsets, arcs) = self.rows(n, |v, w| (v, w), |&(v, _)| v);
            let (targets, weights) = arcs.into_iter().unzip();
            (offsets, targets, Some(weights))
        } else {
            let (offsets, targets) = self.rows(n, |v, _| v, |&v| v);
            (offsets, targets, None)
        };
        let num_edges = if self.directed {
            targets.len()
        } else {
            targets.len() / 2
        };
        CsrGraph::from_parts(offsets, targets, weights, self.directed, num_edges)
    }

    /// The CSR rows by counting sort: count out-degrees, scatter every arc
    /// (one per direction for undirected graphs) into its row in the order
    /// the edges were added, then sort each row by target, stably, keeping
    /// the first arc to each target and packing the rows to the front.
    fn rows<T: Copy + Default>(
        &self,
        n: usize,
        arc: impl Fn(NodeId, EdgeWeight) -> T,
        target: impl Fn(&T) -> NodeId,
    ) -> (Vec<usize>, Vec<T>) {
        let mut offsets = vec![0usize; n + 1];
        for &(u, v, _) in &self.edges {
            offsets[u as usize + 1] += 1;
            if !self.directed {
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut arcs = vec![T::default(); offsets[n]];
        let mut next = offsets.clone();
        for &(u, v, w) in &self.edges {
            let mut place = |from: NodeId, to: NodeId| {
                let slot = &mut next[from as usize];
                arcs[*slot] = arc(to, w);
                *slot += 1;
            };
            place(u, v);
            if !self.directed {
                place(v, u);
            }
        }
        let (mut start, mut write) = (0, 0);
        for u in 0..n {
            let end = offsets[u + 1];
            arcs[start..end].sort_by_key(&target);
            let row = write;
            for i in start..end {
                if write == row || target(&arcs[write - 1]) != target(&arcs[i]) {
                    arcs[write] = arcs[i];
                    write += 1;
                }
            }
            offsets[u + 1] = write;
            start = end;
        }
        arcs.truncate(write);
        (offsets, arcs)
    }

    /// The build this one replaced, kept as the oracle of the counting sort:
    /// every arc materialised, globally sorted, deduplicated.
    #[cfg(test)]
    fn build_by_global_sort(&self) -> CsrGraph {
        let n = self.max_node.map_or(0, |m| m as usize + 1);
        let mut arcs: Vec<(NodeId, NodeId, EdgeWeight)> = Vec::new();
        for &(u, v, w) in &self.edges {
            arcs.push((u, v, w));
            if !self.directed {
                arcs.push((v, u, w));
            }
        }
        arcs.sort_unstable_by_key(|&(u, v, _)| (u, v));
        arcs.dedup_by_key(|&mut (u, v, _)| (u, v));
        let mut offsets = vec![0usize; n + 1];
        for &(u, _, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets = arcs.iter().map(|&(_, v, _)| v).collect();
        let weights = self
            .weighted
            .then(|| arcs.iter().map(|&(_, _, w)| w).collect());
        let num_edges = if self.directed {
            arcs.len()
        } else {
            arcs.len() / 2
        };
        CsrGraph::from_parts(offsets, targets, weights, self.directed, num_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_and_self_loops_dropped() {
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1);
        b.add_edge(1, 0); // duplicate of the same undirected edge
        b.add_edge(0, 1); // exact duplicate
        b.add_edge(2, 2); // self loop
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn reserve_nodes_creates_isolated_nodes() {
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1);
        b.reserve_nodes(10);
        let g = b.build();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn weighted_edges_round_trip() {
        let mut b = GraphBuilder::new_undirected();
        b.add_weighted_edge(0, 1, 2.5);
        b.add_weighted_edge(1, 2, 4.0);
        let g = b.build();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(1, 0), Some(2.5));
        assert_eq!(g.edge_weight(2, 1), Some(4.0));
    }

    #[test]
    fn directed_builder_keeps_direction() {
        let mut b = GraphBuilder::new_directed();
        b.add_edge(3, 1);
        let g = b.build();
        assert_eq!(g.num_nodes(), 4);
        assert!(g.has_edge(3, 1));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn extend_edges_builds_path() {
        let mut b = GraphBuilder::new_undirected();
        b.extend_edges((0..5u32).map(|i| (i, i + 1)));
        let g = b.build();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn negative_weights_are_rejected() {
        GraphBuilder::new_undirected().add_weighted_edge(0, 1, -2.0);
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn nan_weights_are_rejected() {
        GraphBuilder::new_undirected().add_weighted_edge(0, 1, f32::NAN);
    }

    #[test]
    fn zero_weights_are_allowed() {
        let mut b = GraphBuilder::new_undirected();
        b.add_weighted_edge(0, 1, 0.0);
        b.add_weighted_edge(1, 2, 2.0);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(0.0));
    }

    #[test]
    fn the_first_added_duplicate_weight_wins_in_both_directions() {
        let mut b = GraphBuilder::new_undirected();
        b.add_weighted_edge(0, 1, 2.0);
        b.add_weighted_edge(1, 0, 3.0);
        b.add_weighted_edge(0, 1, 4.0);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
        assert_eq!(g.edge_weight(1, 0), Some(2.0));
        assert_eq!(g.num_edges(), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The counting sort builds the global sort's CSR: directed and
        /// undirected, both orientations of an edge, duplicates, self-loops
        /// and isolated nodes; weighted inputs without duplicates, where
        /// the global sort's choice of weight is defined.
        #[test]
        fn counting_sort_build_equals_the_global_sort(
            edges in proptest::collection::vec((0u32..24, 0u32..24), 0..120),
            directed in proptest::prelude::any::<bool>(),
            weighted in proptest::prelude::any::<bool>(),
            reserve in 0usize..40,
        ) {
            let mut b = if directed {
                GraphBuilder::new_directed()
            } else {
                GraphBuilder::new_undirected()
            };
            b.reserve_nodes(reserve);
            let mut seen = std::collections::HashSet::new();
            for (i, &(u, v)) in edges.iter().enumerate() {
                if !weighted {
                    b.add_edge(u, v);
                } else if seen.insert((u.min(v), u.max(v))) {
                    b.add_weighted_edge(u, v, (i % 7) as EdgeWeight * 0.5);
                }
            }
            proptest::prop_assert_eq!(b.build(), b.build_by_global_sort());
        }
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new_undirected().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(GraphBuilder::new_undirected().is_empty());
    }
}
