//! Compressed Sparse Row graph storage.
//!
//! The paper (§2) stores graphs in CSR form: directed edges are stored with
//! their source node, undirected edges are stored twice (once per direction),
//! and a weighted edge stores a `(destination, weight)` tuple. Adjacency lists
//! are kept **sorted by destination**, which lets common-neighbour counting
//! and the Galloping intersection of MPGP run in sub-linear time.

use crate::intersect::galloping_intersect_count;
use crate::{EdgeWeight, NodeId};

/// A Compressed Sparse Row graph.
///
/// Invariants (checked in debug builds and by property tests):
/// * `offsets.len() == num_nodes + 1`, `offsets[0] == 0`,
///   `offsets[num_nodes] == targets.len()`.
/// * offsets are non-decreasing.
/// * every adjacency slice `targets[offsets[u]..offsets[u+1]]` is sorted.
/// * `weights`, when present, has exactly `targets.len()` entries aligned with
///   `targets`, and every weight is **finite and non-negative** — random-walk
///   transition probabilities are proportional to weights, so a negative or
///   NaN weight has no probabilistic meaning. [`crate::GraphBuilder`] rejects
///   such weights at insertion time; [`CsrGraph::from_parts`] re-checks them.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Option<Vec<EdgeWeight>>,
    directed: bool,
    /// Number of *logical* edges: for undirected graphs this is half the
    /// number of stored arcs.
    num_edges: usize,
}

impl CsrGraph {
    /// Builds a CSR graph from pre-computed components.
    ///
    /// # Panics
    /// Panics if the CSR invariants do not hold.
    pub fn from_parts(
        offsets: Vec<usize>,
        targets: Vec<NodeId>,
        weights: Option<Vec<EdgeWeight>>,
        directed: bool,
        num_edges: usize,
    ) -> Self {
        assert!(
            !offsets.is_empty(),
            "offsets must contain at least one entry"
        );
        assert_eq!(offsets[0], 0, "first offset must be zero");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len(),
            "last offset must equal the number of stored arcs"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        if let Some(w) = &weights {
            assert_eq!(w.len(), targets.len(), "weights must align with targets");
            assert!(
                w.iter().all(|x| x.is_finite() && *x >= 0.0),
                "edge weights must be finite and non-negative \
                 (transition probabilities are proportional to weights)"
            );
        }
        let graph = Self {
            offsets,
            targets,
            weights,
            directed,
            num_edges,
        };
        debug_assert!(graph.adjacency_sorted());
        graph
    }

    /// Returns an empty graph with `n` isolated nodes.
    pub fn empty(n: usize, directed: bool) -> Self {
        Self {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            weights: None,
            directed,
            num_edges: 0,
        }
    }

    fn adjacency_sorted(&self) -> bool {
        (0..self.num_nodes()).all(|u| self.neighbors(u as NodeId).windows(2).all(|w| w[0] <= w[1]))
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of logical edges (undirected edges counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of stored arcs (directed adjacency entries).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Whether this graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Whether edges carry weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Sorted adjacency list of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Weights aligned with [`Self::neighbors`]; `None` for unweighted graphs.
    #[inline]
    pub fn neighbor_weights(&self, u: NodeId) -> Option<&[EdgeWeight]> {
        let u = u as usize;
        self.weights
            .as_ref()
            .map(|w| &w[self.offsets[u]..self.offsets[u + 1]])
    }

    /// Range of arc slots owned by `u` in the flat arc arrays, i.e.
    /// `neighbors(u) == &arc_targets()[arc_range(u)]`. Lets per-arc side
    /// tables (e.g. the walk engine's alias tables) share this graph's CSR
    /// offsets instead of storing their own.
    #[inline]
    pub fn arc_range(&self, u: NodeId) -> std::ops::Range<usize> {
        let u = u as usize;
        self.offsets[u]..self.offsets[u + 1]
    }

    /// The full arc-aligned destination array: slot `i` holds the destination
    /// of arc `i`; per-node slices are addressed by [`Self::arc_range`].
    #[inline]
    pub fn arc_targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// The full arc-aligned weight array (`None` for unweighted graphs).
    /// Slot `i` of this array weights the arc whose destination is slot `i`
    /// of the target array; per-node slices are addressed by
    /// [`Self::arc_range`].
    #[inline]
    pub fn arc_weights(&self) -> Option<&[EdgeWeight]> {
        self.weights.as_deref()
    }

    /// Weight of the arc `u -> v`, `1.0` when the graph is unweighted, `None`
    /// when the arc does not exist.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<EdgeWeight> {
        let adj = self.neighbors(u);
        let idx = adj.binary_search(&v).ok()?;
        Some(match &self.weights {
            Some(w) => w[self.offsets[u as usize] + idx],
            None => 1.0,
        })
    }

    /// Whether the arc `u -> v` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Number of common neighbours `|N(u) ∩ N(v)|` via Galloping intersection.
    pub fn common_neighbors(&self, u: NodeId, v: NodeId) -> usize {
        galloping_intersect_count(self.neighbors(u), self.neighbors(v))
    }

    /// Iterator over every stored arc `(u, v, weight)`.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeWeight)> + '_ {
        (0..self.num_nodes() as NodeId).flat_map(move |u| {
            let start = self.offsets[u as usize];
            self.neighbors(u).iter().enumerate().map(move |(i, &v)| {
                let w = self.weights.as_ref().map_or(1.0, |ws| ws[start + i]);
                (u, v, w)
            })
        })
    }

    /// Iterator over logical edges. For undirected graphs each edge `(u, v)`
    /// with `u <= v` is reported once.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeWeight)> + '_ {
        let directed = self.directed;
        self.arcs().filter(move |&(u, v, _)| directed || u <= v)
    }

    /// Sum of all degrees (= number of stored arcs).
    pub fn total_degree(&self) -> usize {
        self.targets.len()
    }

    /// Nodes sorted by descending degree (ties broken by id). Used by the
    /// degree-aware streaming orders of MPGP.
    pub fn nodes_by_degree_desc(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = (0..self.num_nodes() as NodeId).collect();
        nodes.sort_by_key(|&u| (std::cmp::Reverse(self.degree(u)), u));
        nodes
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as NodeId)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Estimated resident memory of the CSR structure in bytes. Used by the
    /// Table 3 / Table 8 memory-footprint experiments.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len() * std::mem::size_of::<EdgeWeight>())
    }

    /// Returns a copy of this graph with uniformly random edge weights in
    /// `[lo, hi)`, mirroring the paper's §8.1 weighted-graph experiment
    /// (weights drawn uniformly at random from `[1, 5)`).
    ///
    /// For undirected graphs the weight of `(u, v)` equals the weight of
    /// `(v, u)`.
    pub fn with_random_weights(&self, lo: f32, hi: f32, seed: u64) -> Self {
        use rand::Rng;
        assert!(lo < hi, "weight range must be non-empty");
        assert!(lo >= 0.0, "edge weights must be non-negative");
        self.with_generated_weights(seed, |rng| rng.gen_range(lo..hi))
    }

    /// Returns a copy of this graph with heavy-tailed Pareto edge weights
    /// (`w = (1 − u)^(−1/α)`, minimum 1, shape `alpha`): the skewed-weight
    /// regime where a per-step linear scan over the adjacency list is at its
    /// worst and the alias-table sampler shines. Smaller `alpha` means a
    /// heavier tail (`alpha ≤ 2` has infinite variance).
    ///
    /// For undirected graphs the weight of `(u, v)` equals the weight of
    /// `(v, u)`.
    pub fn with_skewed_weights(&self, alpha: f32, seed: u64) -> Self {
        use rand::Rng;
        assert!(alpha > 0.0, "Pareto shape must be positive");
        self.with_generated_weights(seed, |rng| {
            let u = rng.gen_range(0.0f32..1.0f32);
            (1.0 - u).powf(-1.0 / alpha)
        })
    }

    /// Shared skeleton of the `with_*_weights` constructors: draws one weight
    /// per logical edge from `gen` and mirrors it onto both arcs of an
    /// undirected edge.
    ///
    /// # Panics
    /// Panics if `gen` produces a non-finite or negative weight (e.g. a
    /// Pareto draw with a tiny shape overflowing `f32` to `+inf`) — this
    /// constructor bypasses [`CsrGraph::from_parts`], so it must enforce the
    /// weight invariant itself.
    fn with_generated_weights(
        &self,
        seed: u64,
        mut gen: impl FnMut(&mut rand::rngs::StdRng) -> f32,
    ) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut weights = vec![0.0f32; self.targets.len()];
        if self.directed {
            for w in weights.iter_mut() {
                *w = gen(&mut rng);
            }
        } else {
            // Assign weights to canonical (min, max) pairs, then mirror.
            for u in 0..self.num_nodes() as NodeId {
                let start = self.offsets[u as usize];
                for (i, &v) in self.neighbors(u).iter().enumerate() {
                    if u <= v {
                        weights[start + i] = gen(&mut rng);
                    }
                }
            }
            for u in 0..self.num_nodes() as NodeId {
                let start = self.offsets[u as usize];
                for (i, &v) in self.neighbors(u).iter().enumerate() {
                    if u > v {
                        // Find the mirrored arc v -> u.
                        let vstart = self.offsets[v as usize];
                        let idx = self
                            .neighbors(v)
                            .binary_search(&u)
                            .expect("undirected CSR graph must contain the mirrored arc");
                        weights[start + i] = weights[vstart + idx];
                    }
                }
            }
        }
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "generated edge weights must be finite and non-negative \
             (transition probabilities are proportional to weights)"
        );
        Self {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights: Some(weights),
            directed: self.directed,
            num_edges: self.num_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle_plus_tail() -> CsrGraph {
        // 0-1, 1-2, 0-2, 2-3
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_arcs(), 8);
        assert!(!g.is_directed());
        assert!(!g.is_weighted());
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn has_edge_and_weight_lookup() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(0, 3), None);
    }

    #[test]
    fn common_neighbors_triangle() {
        let g = triangle_plus_tail();
        // N(0) = {1,2}, N(1) = {0,2} → common = {2}
        assert_eq!(g.common_neighbors(0, 1), 1);
        // N(2) = {0,1,3}, N(3) = {2} → common = {}
        assert_eq!(g.common_neighbors(2, 3), 0);
    }

    #[test]
    fn edges_reports_each_undirected_edge_once() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().map(|(u, v, _)| (u, v)).collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5, false);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.neighbors(0).is_empty());
    }

    #[test]
    fn nodes_by_degree_desc_order() {
        let g = triangle_plus_tail();
        let order = g.nodes_by_degree_desc();
        assert_eq!(order[0], 2); // degree 3
        assert_eq!(order[3], 3); // degree 1
    }

    #[test]
    fn random_weights_are_in_range_and_symmetric() {
        let g = triangle_plus_tail().with_random_weights(1.0, 5.0, 42);
        assert!(g.is_weighted());
        for (u, v, w) in g.arcs() {
            assert!((1.0..5.0).contains(&w));
            assert_eq!(g.edge_weight(u, v), g.edge_weight(v, u));
        }
    }

    #[test]
    fn directed_graph_stores_single_direction() {
        let mut b = GraphBuilder::new_directed();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        assert!(g.is_directed());
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_arcs(), 2);
    }

    #[test]
    #[should_panic(expected = "last offset")]
    fn from_parts_rejects_bad_offsets() {
        CsrGraph::from_parts(vec![0, 5], vec![1, 2], None, false, 1);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_parts_rejects_negative_weights() {
        CsrGraph::from_parts(vec![0, 2], vec![0, 1], Some(vec![1.0, -3.0]), true, 2);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_parts_rejects_nan_weights() {
        CsrGraph::from_parts(vec![0, 1], vec![1], Some(vec![f32::NAN]), true, 1);
    }

    #[test]
    fn arc_range_addresses_weight_slices() {
        let g = triangle_plus_tail().with_random_weights(1.0, 5.0, 3);
        let all = g.arc_weights().unwrap();
        for u in 0..g.num_nodes() as NodeId {
            assert_eq!(g.arc_range(u).len(), g.degree(u));
            assert_eq!(&all[g.arc_range(u)], g.neighbor_weights(u).unwrap());
        }
        assert!(triangle_plus_tail().arc_weights().is_none());
    }

    #[test]
    fn skewed_weights_are_heavy_tailed_and_symmetric() {
        let g = barabasi_like().with_skewed_weights(1.5, 9);
        assert!(g.is_weighted());
        let mut max = 0.0f32;
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for (u, v, w) in g.arcs() {
            assert!(w >= 1.0, "Pareto weights have minimum 1");
            assert_eq!(g.edge_weight(u, v), g.edge_weight(v, u));
            max = max.max(w);
            sum += w as f64;
            count += 1;
        }
        let mean = sum / count as f64;
        // A genuinely skewed distribution: the largest weight dwarfs the mean.
        assert!(
            (max as f64) > 5.0 * mean,
            "max {max} should dominate mean {mean:.2}"
        );
    }

    fn barabasi_like() -> CsrGraph {
        // A small hub-and-spoke graph with enough edges for tail statistics.
        let mut b = GraphBuilder::new_undirected();
        for v in 1..400u32 {
            b.add_edge(0, v);
            b.add_edge(v, (v % 37) + 400);
        }
        b.build()
    }

    #[test]
    fn memory_bytes_positive() {
        let g = triangle_plus_tail();
        assert!(g.memory_bytes() > 0);
        let gw = g.with_random_weights(1.0, 2.0, 1);
        assert!(gw.memory_bytes() > g.memory_bytes());
    }
}
