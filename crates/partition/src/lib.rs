//! Graph partitioners for the DistGER reproduction.
//!
//! Balanced graph partitioning with minimum edge-cut is NP-hard (§3.2), so
//! all partitioners here are streaming heuristics:
//!
//! * [`hash::hash_partition`] — trivial modulo assignment (lower bound on
//!   quality, upper bound on speed).
//! * [`balanced::workload_balanced_partition`] — KnightKing's scheme: balance
//!   the per-machine edge counts and nothing else (§2.2).
//! * [`ldg::ldg_partition`] — Linear Deterministic Greedy (Stanton & Kliot).
//! * [`fennel::fennel_partition`] — FENNEL (Tsourakakis et al.).
//! * [`mpgp`] — the paper's Multi-Proximity-aware streaming Graph
//!   Partitioning, sequential and parallel, with selectable streaming orders.
//!
//! Every partitioner returns a [`Partitioning`], which also exposes the
//! quality metrics used throughout §6.5 (edge cut, local edge fraction,
//! balance factor).

#![forbid(unsafe_code)]

pub mod balanced;
pub mod fennel;
pub mod hash;
pub mod ldg;
pub mod mpgp;
pub mod order;

pub use mpgp::{mpgp_partition, parallel_mpgp_partition, MpgpConfig};
pub use order::StreamingOrder;

use distger_graph::{CsrGraph, NodeId};

/// Identifier of a logical computing machine.
pub type MachineId = usize;

/// A node-to-machine assignment, the output of every partitioner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partitioning {
    assignment: Vec<MachineId>,
    num_machines: usize,
}

impl Partitioning {
    /// Creates a partitioning from an explicit assignment vector.
    ///
    /// # Panics
    /// Panics if `num_machines == 0` or any entry is out of range.
    pub fn new(assignment: Vec<MachineId>, num_machines: usize) -> Self {
        assert!(num_machines > 0, "need at least one machine");
        assert!(
            assignment.iter().all(|&m| m < num_machines),
            "machine id out of range"
        );
        Self {
            assignment,
            num_machines,
        }
    }

    /// Puts every node on machine 0 — the single-machine degenerate case.
    pub fn single_machine(num_nodes: usize) -> Self {
        Self {
            assignment: vec![0; num_nodes],
            num_machines: 1,
        }
    }

    /// Machine owning node `u`.
    #[inline]
    pub fn machine_of(&self, u: NodeId) -> MachineId {
        self.assignment[u as usize]
    }

    /// Number of machines.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// Number of nodes covered by the assignment.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.assignment.len()
    }

    /// Raw assignment slice.
    #[inline]
    pub fn assignment(&self) -> &[MachineId] {
        &self.assignment
    }

    /// Number of nodes per machine.
    pub fn node_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_machines];
        for &m in &self.assignment {
            counts[m] += 1;
        }
        counts
    }

    /// Number of stored arcs (≈ walking workload) per machine; the quantity
    /// KnightKing balances.
    pub fn arc_counts(&self, graph: &CsrGraph) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_machines];
        for u in 0..graph.num_nodes() {
            counts[self.assignment[u]] += graph.degree(u as NodeId);
        }
        counts
    }

    /// Nodes assigned to machine `m`, in ascending id order.
    pub fn nodes_of(&self, m: MachineId) -> Vec<NodeId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &pm)| pm == m)
            .map(|(u, _)| u as NodeId)
            .collect()
    }

    /// Number of logical edges whose endpoints live on different machines.
    pub fn edge_cut(&self, graph: &CsrGraph) -> usize {
        graph
            .edges()
            .filter(|&(u, v, _)| self.machine_of(u) != self.machine_of(v))
            .count()
    }

    /// Fraction of logical edges that stay inside one machine. This is the
    /// "local partition utilization" MPGP optimizes for: a random walker
    /// crossing an edge stays local with exactly this probability under a
    /// uniform edge-usage model.
    pub fn local_edge_fraction(&self, graph: &CsrGraph) -> f64 {
        let total = graph.num_edges();
        if total == 0 {
            return 1.0;
        }
        1.0 - self.edge_cut(graph) as f64 / total as f64
    }

    /// Load-balance factor: `max nodes per machine / (n / m)`. 1.0 is perfect.
    pub fn balance_factor(&self) -> f64 {
        let counts = self.node_counts();
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        let avg = self.assignment.len() as f64 / self.num_machines as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }

    /// Arc (workload) balance factor: `max arcs per machine / (arcs / m)`.
    pub fn arc_balance_factor(&self, graph: &CsrGraph) -> f64 {
        let counts = self.arc_counts(graph);
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        let avg = graph.total_degree() as f64 / self.num_machines as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distger_graph::GraphBuilder;

    fn square_graph() -> CsrGraph {
        // 0-1, 1-2, 2-3, 3-0 (a 4-cycle)
        let mut b = GraphBuilder::new_undirected();
        b.extend_edges([(0, 1), (1, 2), (2, 3), (3, 0)]);
        b.build()
    }

    #[test]
    fn metrics_on_explicit_partitioning() {
        let g = square_graph();
        let p = Partitioning::new(vec![0, 0, 1, 1], 2);
        assert_eq!(p.machine_of(0), 0);
        assert_eq!(p.machine_of(3), 1);
        assert_eq!(p.node_counts(), vec![2, 2]);
        assert_eq!(p.edge_cut(&g), 2); // edges 1-2 and 3-0 are cut
        assert!((p.local_edge_fraction(&g) - 0.5).abs() < 1e-12);
        assert!((p.balance_factor() - 1.0).abs() < 1e-12);
        assert_eq!(p.arc_counts(&g), vec![4, 4]);
    }

    #[test]
    fn single_machine_has_no_cut() {
        let g = square_graph();
        let p = Partitioning::single_machine(g.num_nodes());
        assert_eq!(p.edge_cut(&g), 0);
        assert_eq!(p.num_machines(), 1);
        assert!((p.local_edge_fraction(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nodes_of_lists_members() {
        let p = Partitioning::new(vec![0, 1, 0, 1, 1], 2);
        assert_eq!(p.nodes_of(0), vec![0, 2]);
        assert_eq!(p.nodes_of(1), vec![1, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "machine id out of range")]
    fn new_rejects_out_of_range() {
        Partitioning::new(vec![0, 2], 2);
    }

    #[test]
    fn imbalanced_partitioning_has_high_balance_factor() {
        let p = Partitioning::new(vec![0, 0, 0, 1], 2);
        assert!((p.balance_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn local_edge_fraction_of_empty_graph_is_one() {
        let g = CsrGraph::empty(3, false);
        let p = Partitioning::new(vec![0, 1, 0], 2);
        assert_eq!(p.local_edge_fraction(&g), 1.0);
    }
}
